"""Figure-level benchmark of the alohactrl CLI.

    python3 perfbench/run.py --workload {sweep,meta,regret,control,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from `src/` next to this
directory. Each repetition of a workload runs in a fresh interpreter
(`worker.py`), so one workload's memory peak and warm imports never reach
another. Repetitions continue while the next one is expected to end within
`--seconds`; there is always at least one. Repetition i of a run with
`--seed N` gets the CLI seed N * REP_SEED_STRIDE + i, so the output checks of
one run cover several independent samples; without `--seed` every
repetition uses the presets' own seeds. Set-up time is also sampled by
interpreters that only import and load the configs, until there are
SETUP_SAMPLES samples. CLI outputs go to a temporary directory inside the
checkout that is removed at exit.

With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` it also runs the workload once more with every layer wrapped
in spans, and carries the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MAX_REPS = 20
REP_SEED_STRIDE = 1000  # > MAX_REPS, so runs with different seeds share no inputs
RUN_LIMIT_S = 170.0  # workers are killed so that a whole run ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics beyond each layer's .calls, .s and .self_s.
EXTRA_LAYER_METRICS = {
    "montecarlo.simulate_ack_blocks.blocks": ("count", "higher"),
    "montecarlo.ack_kernel.draws_per_s": ("1/s", "higher"),
    "analytics.radial_grid.nodes": ("count", "lower"),
    "analytics.exponent.s_evals": ("count", "lower"),
    "analytics.exponent.max_call_bytes": ("B", "lower"),
    "config.emit_results.bytes": ("B", "lower"),
    "bandit.block_us": ("us", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of every per-layer metric."""
    spec = {}
    for layer in tracer.LAYERS:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.s"] = ("s", "lower")
        spec[f"{layer}.self_s"] = ("s", "lower")
    spec.update(EXTRA_LAYER_METRICS)
    return spec


def source_line_counts() -> dict[str, int]:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "alohactrl").glob("*.py"))}


def blas_setting() -> str:
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    set_ = [f"{k}={os.environ[k]}" for k in keys if k in os.environ]
    return ", ".join(set_) or f"unset (OpenBLAS default: {os.cpu_count()} threads)"


class Runner:
    """Starts worker interpreters for one workload and collects their results."""

    def __init__(self, workload: str, seed, tmp: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = started
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, *flags: str, rep: int = 0) -> dict:
        """One worker run with the inputs of repetition `rep`; a worker that
        fails or overruns reports a crash."""
        self.count += 1
        out = self.tmp / f"{self.workload}-{self.count}"
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, str(out)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed * REP_SEED_STRIDE + rep)]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(spawned), *flags], env=self.env,
                                stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        outside_s = time.monotonic() - spawned
        result_path = out / "result.json"
        if code == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            spans = out / "spans.json"
            if spans.exists():
                result["spans"] = json.loads(spans.read_text())
        else:
            print(f"worker for {self.workload} ended with code {code}", file=sys.stderr)
            result = {"crashed": True, "setup_s": outside_s, "wall_s": outside_s,
                      "peak_rss_mb": 0.0, "cpu_s": 0.0, "items": 0}
        shutil.rmtree(out, ignore_errors=True)
        return result


def tally(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over runs; a crashed run fails every operation
    a finished run of the same workload checks."""
    expected = max([r.get("expected", 0) for r in runs] + [1])
    attempted = sum(expected if r.get("crashed") else r["checked"] for r in runs)
    failed = sum(expected if r.get("crashed") else r["failed"] for r in runs)
    return attempted, failed


def run_workload(workload: str, seed, seconds: float, trace: bool, tmp: Path) -> dict:
    started = time.monotonic()
    runner = Runner(workload, seed, tmp, started)
    runner.spawn("--setup-only")  # warm-up: bytecode caches, file cache
    reps = []
    while len(reps) < MAX_REPS:
        t0 = time.monotonic()
        rep = runner.spawn(rep=len(reps))
        reps.append(rep)
        if rep.get("crashed"):
            break
        now = time.monotonic()
        if (now - started) + (now - t0) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES and not reps[-1].get("crashed"):
        setups.append(runner.spawn("--setup-only")["setup_s"])
    traced = [runner.spawn("--trace")] if trace and not reps[-1].get("crashed") else []

    print(f"{workload} wall_s/cpu_s per repetition: "
          + " ".join(f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}" for r in reps), file=sys.stderr)
    attempted, failed = tally(reps + traced)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    summary = {
        "workload": workload, "reps": len(reps), "setup_samples": len(setups),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    if trace:
        summary["per_layer"] = layer_metrics(reps, traced)
    return summary


def layer_metrics(reps: list[dict], traced: list[dict]) -> dict:
    spec = per_layer_spec()
    values = dict.fromkeys(spec, 0.0)
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in reps)
    if not traced or traced[0].get("crashed"):
        return {k: {"value": v, "unit": spec[k][0]} for k, v in values.items()}
    run = traced[0]
    dump = run["spans"]
    for name in dump["missing"]:
        print(f"layer {name}: absent (not found in alohactrl), reported as 0",
              file=sys.stderr)
    layers = tracer.summarize(dump)
    for layer, entry in layers.items():
        for key in ("calls", "s", "self_s"):
            values[f"{layer}.{key}"] = entry[key]
    ack = layers.get("montecarlo.simulate_ack_blocks", {})
    values["montecarlo.simulate_ack_blocks.blocks"] = ack.get("blocks", 0)
    if ack.get("s"):
        values["montecarlo.ack_kernel.draws_per_s"] = ack.get("draws", 0) / ack["s"]
    values["analytics.radial_grid.nodes"] = layers.get("analytics.radial_grid", {}).get("nodes", 0)
    exponent = layers.get("analytics.exponent", {})
    values["analytics.exponent.s_evals"] = exponent.get("s_evals", 0)
    values["analytics.exponent.max_call_bytes"] = exponent.get("call_bytes", 0)
    values["config.emit_results.bytes"] = layers.get("config.emit_results", {}).get("bytes", 0)
    ts = layers.get("bandit.run_ts", {})
    if ts.get("blocks"):
        values["bandit.block_us"] = 1e6 * ts["s"] / ts["blocks"]
    values["trace.overhead_s"] = run["wall_s"] - statistics.median(r["wall_s"] for r in reps)
    for line in tracer.point_breakdown(dump):
        print(line, file=sys.stderr)
    return {k: {"value": v, "unit": spec[k][0]} for k, v in values.items()}


def print_summary(summary: dict) -> None:
    w = summary["workload"]
    print(f"{w}: {summary['reps']} run(s), {summary['setup_samples']} set-up samples, "
          f"{summary['failed']}/{summary['attempted']} checks failed")
    rows = dict(summary["metrics"])
    rows["failed_share"] = {"value": summary["failed_share"], "unit": "ratio"}
    rows.update(summary.get("per_layer", {}))
    for name, m in rows.items():
        print(f"  {w}.{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "alohactrl" / "__init__.py").is_file():
        print(f"error: no alohactrl package under {SRC}", file=sys.stderr)
        return 2
    print(f"source lines: {json.dumps(source_line_counts())}; "
          f"python {sys.version.split()[0]}; BLAS threads: {blas_setting()}",
          file=sys.stderr)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace), Path(tmp))
                         for n in names]
    finally:
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for s in summaries:
        print_summary(s)
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    key = "per_layer" if args.trace else "metrics"
    if len(summaries) == 1:
        metrics = summaries[0][key]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s[key].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
