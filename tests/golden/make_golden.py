"""Golden outputs: each CLI command at the presets' seeds, file by file.

Every run goes through `cli.main` with `--threads 1` into its own folder next
to this script, keeping every file it writes except `manifest.json` (which
holds the wall time and the date). `tests/test_golden.py` reruns them and
compares. Regenerate only when an output is meant to change:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from alohactrl import cli

HERE = Path(__file__).resolve().parent

N = ["--set", "num_realizations=2000"]
RUNS = {
    "simulate_fig2": ["simulate", "--config", "fig2", *N],
    "simulate_fig2_state_level": ["simulate", "--config", "fig2", *N,
                                  "--set", "state_level=true"],
    "simulate_fig2_fixed_geometry": ["simulate", "--config", "fig2", *N,
                                     "--set", "fixed_geometry=true"],
    "analytic_fig2": ["analytic", "--config", "fig2", "--set", "system=both"],
    "analytic_fig4": ["analytic", "--config", "fig4", "--set", "system=both"],
    "compare_fig2": ["compare", "--config", "fig2", *N],
    "compare_fig4": ["compare", "--config", "fig4", *N],
    "ts_fig3": ["ts", "--config", "fig3", "--set", "K=1000"],
    "regret_fig5": ["regret", "--config", "fig5", "--set", "num_realizations=5",
                    "--set", "K=1000"],
}


def run(name: str, out_dir: Path) -> dict[str, str]:
    """Run RUNS[name] into out_dir; {file name: text} of what it wrote, without
    the manifest."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*RUNS[name], "--threads", "1", "--out", str(out_dir)])
    if code:
        raise RuntimeError(f"{name} exited {code}")
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


def main() -> None:
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            files = run(name, Path(tmp))
        target = HERE / name
        target.mkdir(exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for file_name, text in files.items():
            (target / file_name).write_text(text, encoding="utf-8")
        print(f"{target}: {', '.join(files)}")


if __name__ == "__main__":
    main()
