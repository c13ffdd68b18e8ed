"""Every golden run of `tests/golden/make_golden.py` still writes its
checked-in files.

Texts must match exactly, except the quadrature outputs (`analytic.csv:value`
and the `analytic` and `abs_diff` columns of `compare*.csv`), which may move
by 1e-12 (relative) with the platform's floating-point library.
"""

import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

import make_golden  # noqa: E402

LOOSE_COLUMNS = {
    "analytic.csv": {"value"},
    "compare.csv": {"analytic", "abs_diff"},
    "compare_meta.csv": {"analytic", "abs_diff"},
}


@pytest.mark.parametrize("name", list(make_golden.RUNS))
def test_outputs_match_golden(name, tmp_path):
    got = make_golden.run(name, tmp_path)
    want = {p.name: p.read_text(encoding="utf-8") for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for file_name, text in want.items():
        if got[file_name] == text:
            continue
        loose = LOOSE_COLUMNS.get(file_name)
        assert loose, f"{name}/{file_name} differs"
        got_rows = [line.split(",") for line in got[file_name].splitlines()]
        want_rows = [line.split(",") for line in text.splitlines()]
        assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
        for g, w in zip(got_rows[1:], want_rows[1:]):
            assert len(g) == len(w)
            for column, a, b in zip(want_rows[0], g, w):
                if column in loose:
                    assert float(a) == pytest.approx(float(b), rel=1e-12, abs=0.0), (file_name, w)
                else:
                    assert a == b, (file_name, column, w)
