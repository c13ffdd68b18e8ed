"""Command-line entry points.

Subcommands: simulate | analytic | ts | compare | regret | selftest, all
driven by a flat key=value config file (or a bundled preset name) with
--set overrides. Results are written as CSV plus a manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import analytics, __version__
from .bandit import run_ts
from .config import emit_results, load_config
from .geometry import sample_ppp
from .montecarlo import (
    analytic_points,
    compare_analytic_empirical,
    estimate_block_controllability,
    run_regret_study,
)
from .selftest import run_selftest


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):  # includes numpy scalars; plain repr round-trips
        return repr(float(x))
    return str(x)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _cmd_simulate(config) -> dict[str, str]:
    results = estimate_block_controllability(config)
    rows = [
        [r.protocol.value, r.system, r.q, r.estimate, r.half_width_95]
        for r in results
    ]
    return {"sweep.csv": _csv(["protocol", "system", "q", "estimate", "ci95"], rows)}


def _cmd_analytic(config) -> dict[str, str]:
    lam = config.ppp.intensity_lambda
    rows = [[protocol.value, q, lam, config.T, config.v, beta, value]
            for protocol, _, q, beta, value in analytic_points(config)]
    return {"analytic.csv": _csv(["protocol", "q", "lambda", "T", "v", "beta", "value"], rows)}


def _cmd_ts(config) -> dict[str, str]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    realization = sample_ppp(config.ppp, rng)
    protocol = config.protocols[0]
    trace, history = run_ts(
        [realization], config.arms, protocol, config.channel, config.T, config.K, rng
    )
    arm_indices = trace.arm_indices[0]
    rows = [
        [k + 1, int(arm_indices[k]), config.arms[int(arm_indices[k])],
         float(trace.block_rewards[0, k]), float(trace.cumulative[0, k])]
        for k in range(config.K)
    ]
    artifacts = {
        "ts.csv": _csv(["k", "arm", "q", "block_reward", "cumulative_regret"], rows),
        "posteriors.json": json.dumps(
            {
                "oracle_arm_index": int(trace.oracle_arm_index[0]),
                "arm_pull_counts": {str(d): int(n)
                                    for d, n in enumerate(trace.arm_pull_counts[0])},
                "snapshots": [{"block": h["block"], "posteriors": h["posteriors"][0].tolist()}
                              for h in history],
            },
            indent=2,
        ) + "\n",
    }
    return artifacts


def _cmd_compare(config) -> dict[str, str]:
    header = ["protocol", "system", "q", "empirical", "analytic", "abs_diff", "passes"]
    rows = [[r.protocol.value, r.system, r.q, r.empirical, r.analytic, r.abs_diff,
             int(r.passes), r.beta] for r in compare_analytic_empirical(config)]
    artifacts = {}
    if "restless" in config.systems:
        artifacts["compare.csv"] = _csv(header, [row[:-1] for row in rows if row[-1] is None])
    meta = [row for row in rows if row[-1] is not None]
    if meta:
        artifacts["compare_meta.csv"] = _csv(header + ["beta"], meta)
    return artifacts


def _cmd_regret(config) -> dict[str, str]:
    study = run_regret_study(config)
    rows = [
        [k + 1, float(study.mean_cumulative[k]), float(study.envelope[k])]
        for k in range(len(study.mean_cumulative))
    ]
    return {"regret.csv": _csv(["k", "mean_regret", "envelope"], rows)}


def _check_command(command: str, config) -> None:
    """Reject a config the command would run only in part, or not as asked."""
    if command in ("ts", "regret") and len(config.protocols) > 1:
        raise ValueError(f"config key 'protocol': {command} runs block or classical, not both")
    if command == "compare" and config.fixed_geometry:
        raise ValueError("config key 'fixed_geometry': compare checks network averages, "
                         "which need a new geometry per block")
    if (command in ("analytic", "compare") and config.systems == ("rested",)
            and not config.beta_values):
        raise ValueError("config key 'beta_values': the rested values need a target")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analytic": _cmd_analytic,
    "ts": _cmd_ts,
    "compare": _cmd_compare,
    "regret": _cmd_regret,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alohactrl",
        description="Simulate and analyze ALOHA access for Poisson networks of control loops",
    )
    parser.add_argument("--version", action="version", version=f"alohactrl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "selftest"):
        p = sub.add_parser(name)
        if name == "selftest":
            continue
        p.add_argument("--config", required=True,
                       help="config file path or preset name (fig2..fig5)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest()

    overrides = list(args.overrides)
    if args.threads is not None:
        overrides.append(f"threads = {args.threads}")
    if args.seed is not None:
        overrides.append(f"seed = {args.seed}")
    try:
        config = load_config(args.config, overrides)
        _check_command(args.command, config)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        artifacts = _COMMANDS[args.command](config)
    except analytics.QuadratureError as exc:
        print(f"error: {exc} (error estimate {exc.error_estimate:.3e})", file=sys.stderr)
        return 4
    elapsed = time.perf_counter() - start
    try:
        written = emit_results(
            artifacts, args.out, config, force=args.force, wall_time_s=elapsed
        )
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
