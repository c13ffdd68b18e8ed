"""The benchmark's workloads and the checks on their outputs.

Each workload is a list of CLI steps run through `alohactrl.cli.main`. Every
step writes into its own output directory, named after the subcommand. The
checks apply the program's own acceptance rules to the CSV files the CLI
wrote; `check` returns (checked operations, failed operations).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

# Analytic restless values the `control` check compares against; the same
# step as the second half of `sweep`, run after the timed window.
ANALYTIC_FIG2 = ["analytic", "--config", "fig2"]

WORKLOADS = {
    "sweep": [
        ["simulate", "--config", "fig2", "--set", "num_realizations=2000"],
        ANALYTIC_FIG2,
    ],
    "meta": [
        ["compare", "--config", "fig4", "--set", "protocol=both",
         "--set", "q_values=[0.7, 0.95]"],
    ],
    "regret": [
        ["regret", "--config", "fig5", "--set", "num_realizations=10"],
    ],
    "control": [
        ["simulate", "--config", "fig2", "--set", "state_level=true",
         "--set", "num_realizations=200"],
    ],
}


def items(name: str, configs: list) -> int:
    """Work items of one run: simulated blocks, or meta points for `meta`."""
    c = configs[0]
    if name in ("sweep", "control"):
        return len(c.protocols) * len(c.q_values) * c.num_realizations
    if name == "regret":
        return c.num_realizations * c.K
    return len(c.protocols) * len(c.beta_values) * len(c.q_values)


def expected_points(name: str, configs: list) -> int:
    """Operations a run checks; a run that crashes fails all of them."""
    c = configs[0]
    if name == "sweep":
        return 2 * len(c.protocols) * len(c.q_values)
    if name == "control":
        return len(c.protocols) * len(c.q_values)
    if name == "regret":
        return c.K
    return len(c.protocols) * len(c.beta_values) * len(c.q_values)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def restless_passes(estimate: float, ci95: float, analytic: float) -> bool:
    """The rule of `montecarlo.compare_analytic_empirical`."""
    return abs(estimate - analytic) <= max(0.02, 3.0 * ci95)


def meta_passes(empirical: float, analytic: float, passes: str) -> bool:
    """The CLI's own `passes` flag of `compare`, and the |diff| <= 0.02 it encodes."""
    return passes == "1" and abs(empirical - analytic) <= 0.02


def regret_envelope(k: int, T: int, D: int) -> float:
    """`bandit.regret_envelope_explicit`: sqrt(64 K D log K) + 4 T D."""
    return math.sqrt(64.0 * k * D * math.log(k)) + 4.0 * T * D


def _analytic_restless(rows: list[dict]) -> dict:
    return {(r["protocol"], float(r["q"])): float(r["value"])
            for r in rows if r["beta"] == ""}


def check_sweep_rows(sweep: list[dict], analytic: list[dict], expected: int,
                     rested_order: bool) -> tuple[int, int]:
    """Restless estimates against the analytic values and, when asked,
    rested >= restless at every (protocol, q)."""
    ana = _analytic_restless(analytic)
    est = {(r["protocol"], r["system"], float(r["q"])): r for r in sweep}
    failed = 0
    points = sorted({(p, q) for p, _, q in est})
    for p, q in points:
        less = est.get((p, "restless", q))
        if less is None or (p, q) not in ana or not restless_passes(
                float(less["estimate"]), float(less["ci95"]), ana[(p, q)]):
            failed += 1
        if rested_order:
            more = est.get((p, "rested", q))
            if less is None or more is None or float(more["estimate"]) < float(less["estimate"]):
                failed += 1
    checked = len(points) * (2 if rested_order else 1)
    return max(expected, checked), failed + max(0, expected - checked)


def check_meta_rows(rows: list[dict], expected: int) -> tuple[int, int]:
    failed = sum(not meta_passes(float(r["empirical"]), float(r["analytic"]), r["passes"])
                 for r in rows)
    return max(expected, len(rows)), failed + max(0, expected - len(rows))


def check_regret_rows(rows: list[dict], T: int, D: int, expected: int) -> tuple[int, int]:
    """Mean regret at or below the explicit envelope at every k; the
    envelope column must be the explicit envelope."""
    failed = 0
    for r in rows:
        k, mean, env = int(r["k"]), float(r["mean_regret"]), float(r["envelope"])
        if not math.isclose(env, regret_envelope(k, T, D), rel_tol=1e-9) or mean > env:
            failed += 1
    return max(expected, len(rows)), failed + max(0, expected - len(rows))


def check(name: str, out: Path, configs: list) -> tuple[int, int]:
    """(checked, failed) for the files one run of workload `name` wrote to `out`."""
    c = configs[0]
    expected = expected_points(name, configs)
    if name in ("sweep", "control"):
        return check_sweep_rows(read_csv(out / "simulate" / "sweep.csv"),
                                read_csv(out / "analytic" / "analytic.csv"),
                                expected, rested_order=name == "sweep")
    if name == "meta":
        return check_meta_rows(read_csv(out / "compare" / "compare_meta.csv"), expected)
    return check_regret_rows(read_csv(out / "regret" / "regret.csv"),
                             c.T, len(c.arms), expected)
