"""The benchmark's traced runs still work against the current package.

Each workload of `perfbench/workloads.py` runs in-process the way
`perfbench/worker.py` runs a traced repetition: every step through
`cli.main` with `--threads 1` and the presets' seeds, inside an installed
`tracer.Tracer`. The tracer reads positional arguments of the functions it
wraps and the paths `emit_results` returns, so a changed signature crashes
the run, and the benchmark fails one checked operation for every
`RuntimeWarning`; here a warning is an error. The outputs must then pass the
benchmark's own checks.
"""

import sys
import warnings
from pathlib import Path

import pytest

from alohactrl import cli
from alohactrl.config import load_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

EXTRA = ["--threads", "1"]

# Layers the tracer still names but whose functions were deleted from the
# package; the tracer reports them as absent. Any other absent layer means a
# traced function disappeared.
ABSENT_LAYERS = [
    "channel.cond_success_prob_classical",
    "channel.cond_success_prob_block",
    "analytics.gil_pelaez",
    "bandit.simulate_reward_block",
    "analytics.radial_grid",
    "analytics.exponent",
]


def _configs(steps):
    parser = cli.build_parser()
    configs = []
    for step in steps:
        ns = parser.parse_args(step)
        configs.append(load_config(ns.config, ns.overrides + [f"threads = {ns.threads}"]))
    return configs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_passes_its_checks(name, tmp_path):
    steps = [step + EXTRA for step in workloads.WORKLOADS[name]]
    configs = _configs(steps)
    trace = tracer.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace.install()
        try:
            for step in steps:
                worker._run_step(step, tmp_path)
        finally:
            trace.uninstall()
        if name == "control":
            worker._run_step(workloads.ANALYTIC_FIG2 + EXTRA, tmp_path)
    checked, failed = workloads.check(name, tmp_path, configs)
    assert checked == workloads.expected_points(name, configs)
    assert failed == 0
    assert trace.missing == ABSENT_LAYERS
    summary = tracer.summarize(trace.dump())
    assert summary["config.load_config"]["calls"] == len(steps)
    assert summary["config.emit_results"]["bytes"] > 0
