"""One run of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD OUT_DIR SPAWNED [--seed N] [--trace] [--setup-only]

SPAWNED is the `time.monotonic()` reading the parent took just before
starting this interpreter, so set-up time covers interpreter start, the
imports and `load_config` of every step. The worker writes `result.json`
(and `spans.json` when traced) into OUT_DIR and prints nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

from alohactrl import cli
from alohactrl.config import load_config

import tracer
import workloads


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_step(step: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(step + ["--out", str(out / step[0])])
    if code != 0:
        raise RuntimeError(f"alohactrl {' '.join(step)} exited with code {code}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("out", type=Path)
    ap.add_argument("spawned", type=float)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    extra = ["--threads", "1"] + ([] if args.seed is None else ["--seed", str(args.seed)])
    steps = [step + extra for step in workloads.WORKLOADS[args.workload]]
    parser = cli.build_parser()
    configs = []
    for step in steps:
        ns = parser.parse_args(step)
        overrides = ns.overrides + [f"threads = {ns.threads}"]
        if ns.seed is not None:
            overrides.append(f"seed = {ns.seed}")
        configs.append(load_config(ns.config, overrides))
    result = {
        "setup_s": time.monotonic() - args.spawned,
        "items": workloads.items(args.workload, configs),
        "expected": workloads.expected_points(args.workload, configs),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        (args.out / "result.json").write_text(json.dumps(result))
        return 0

    trace = tracer.Tracer() if args.trace else None
    crashed = False
    cpu0 = _cpu_s()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if trace:
            trace.install()
        start = time.perf_counter()
        try:
            for step in steps:
                _run_step(step, args.out)
        except Exception:
            traceback.print_exc()
            crashed = True
        wall = time.perf_counter() - start
        if trace:
            trace.uninstall()
    result["cpu_s"] = _cpu_s() - cpu0
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runtime_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    for w in runtime_warnings:
        print(f"RuntimeWarning: {w.message}", file=sys.stderr)

    checked, failed = result["expected"], result["expected"]
    if not crashed:
        try:
            if args.workload == "control":
                _run_step(workloads.ANALYTIC_FIG2 + extra, args.out)
            checked, failed = workloads.check(args.workload, args.out, configs)
        except Exception:
            traceback.print_exc()
    # A warning cannot be traced to its point from outside, so each one
    # fails one checked operation.
    result["checked"] = checked
    result["failed"] = min(checked, failed + len(runtime_warnings))
    if trace:
        (args.out / "spans.json").write_text(json.dumps(trace.dump()))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
