"""Span tracing of alohactrl from outside the package.

Each traced function is replaced, at every module attribute that refers to
it, by a wrapper that records a span (name, start, end, parent, counters).
Spans stay in memory until the run ends; `summarize` turns them into
per-layer calls, inclusive time and self time (duration minus the part of
the interval that child spans cover).

Every `alohactrl.*` module attribute bound to the original function is
patched, because callers resolve names in their own module globals: `run_ts`
looks up `simulate_reward_block` in `alohactrl.bandit`, while the CLI looks
up `load_config` in `alohactrl.cli`.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

# (layer name, module, attribute) of each traced module-level function.
FUNCTIONS = [
    ("geometry.sample_ppp", "alohactrl.geometry", "sample_ppp"),
    ("channel.cond_success_prob_classical", "alohactrl.channel", "cond_success_prob_classical"),
    ("channel.cond_success_prob_block", "alohactrl.channel", "cond_success_prob_block"),
    ("montecarlo.simulate_ack_blocks", "alohactrl.montecarlo", "simulate_ack_blocks"),
    ("montecarlo.estimate_meta_empirical", "alohactrl.montecarlo", "estimate_meta_empirical"),
    ("montecarlo.estimate_block_controllability", "alohactrl.montecarlo",
     "estimate_block_controllability"),
    ("montecarlo.run_regret_study", "alohactrl.montecarlo", "run_regret_study"),
    ("control.run_block_restless", "alohactrl.control", "run_block_restless"),
    ("control.run_block_rested", "alohactrl.control", "run_block_rested"),
    ("analytics.moment_zeta", "alohactrl.analytics", "moment_zeta"),
    ("analytics.prob_block_controllable_restless", "alohactrl.analytics",
     "prob_block_controllable_restless"),
    ("analytics.meta_distribution_rested", "alohactrl.analytics", "meta_distribution_rested"),
    ("analytics.gil_pelaez", "alohactrl.analytics", "_gil_pelaez_integral"),
    ("bandit.run_ts", "alohactrl.bandit", "run_ts"),
    ("bandit.select_arm", "alohactrl.bandit", "select_arm"),
    ("bandit.simulate_reward_block", "alohactrl.bandit", "simulate_reward_block"),
    ("config.load_config", "alohactrl.config", "load_config"),
    ("config.emit_results", "alohactrl.config", "emit_results"),
]

# (layer name, module, class, method) of each traced method; the radial grid
# is a private class, so its build and its exponent are timed as methods.
METHODS = [
    ("analytics.radial_grid", "alohactrl.analytics", "_RadialGrid", "__init__"),
    ("analytics.exponent", "alohactrl.analytics", "_RadialGrid", "exponent"),
]

LAYERS = [name for name, *_ in FUNCTIONS + METHODS]


def _grid_nodes(grid) -> int:
    return sum(getattr(getattr(grid, a, None), "size", 0) for a in ("_lnb_in", "_lnb_out"))


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Work counters attached to a span, computed from the call's arguments and
# result after the span has ended.
def _count_ack_blocks(args, kwargs, result):
    ppp, T = _arg(args, kwargs, 0, "ppp"), _arg(args, kwargs, 4, "T")
    n_blocks = _arg(args, kwargs, 5, "n_blocks")
    realization = _arg(args, kwargs, 7, "realization")
    mean_n = ppp.mean_count if realization is None else realization.num_interferers
    return {"blocks": n_blocks, "draws": n_blocks * T * (1.0 + mean_n)}


def _count_run_ts(args, kwargs, result):
    return {"blocks": _arg(args, kwargs, 5, "K")}


def _count_emit(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _count_grid(args, kwargs, result):
    return {"nodes": _grid_nodes(args[0])}


def _count_exponent(args, kwargs, result):
    n_s = int(getattr(result, "size", 1))
    return {"s_evals": n_s, "call_bytes": n_s * _grid_nodes(args[0]) * 16}


def _label_meta_point(args, kwargs, result):
    query, protocol = args[0], _arg(args, kwargs, 2, "protocol")
    return {"point": f"{getattr(protocol, 'value', protocol)} q={query.q} beta={query.beta}"}


COUNTERS = {
    "analytics.meta_distribution_rested": _label_meta_point,
    "montecarlo.simulate_ack_blocks": _count_ack_blocks,
    "bandit.run_ts": _count_run_ts,
    "config.emit_results": _count_emit,
    "analytics.radial_grid": _count_grid,
    "analytics.exponent": _count_exponent,
}


class Tracer:
    """Records spans around the traced alohactrl functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name index, start, end, parent, counters)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, func):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, None)
            if counter is not None:
                spans[slot] = (index, start, end, parent, counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "alohactrl" or key.startswith("alohactrl.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            original = vars(cls).get(method) if isinstance(cls, type) else None
            if original is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self) -> dict:
        """The recorded spans in a JSON-ready form."""
        return {"names": self.names, "missing": self.missing, "spans": self.spans}


def _enclosing(spans, p: int, name_i: int) -> int:
    """Index of the nearest span named `name_i` from span `p` up, or -1."""
    while p >= 0 and spans[p][0] != name_i:
        p = spans[p][3]
    return p


def summarize(dump: dict) -> dict[str, dict]:
    """Per-layer calls, inclusive seconds, self seconds and summed counters.

    Inclusive time counts only outermost spans of a name, so a recursive
    call is not counted twice. Counters named `call_bytes` keep their
    maximum; the other numeric ones are summed.
    """
    names, spans = dump["names"], dump["spans"]
    children_time = [0.0] * len(spans)
    for name_i, start, end, parent, _ in spans:
        if parent >= 0:
            children_time[parent] += end - start
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, (name_i, start, end, parent, counters) in enumerate(spans):
        entry = out[names[name_i]]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - children_time[i]
        if _enclosing(spans, parent, name_i) < 0:
            entry["s"] += end - start
        for key, value in (counters or {}).items():
            if isinstance(value, str):
                continue
            if key == "call_bytes":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out


def point_breakdown(dump: dict) -> list[str]:
    """One line per meta-distribution point: its time and the share of it
    spent building the radial grid."""
    names, spans = dump["names"], dump["spans"]
    if "analytics.meta_distribution_rested" not in names:
        return []
    meta_i = names.index("analytics.meta_distribution_rested")
    grid_i = names.index("analytics.radial_grid") if "analytics.radial_grid" in names else -1
    grid_s = {}
    for name_i, start, end, parent, _ in spans:
        p = _enclosing(spans, parent, meta_i) if name_i == grid_i else -1
        if p >= 0:
            grid_s[p] = grid_s.get(p, 0.0) + end - start
    lines = []
    for i, (name_i, start, end, parent, counters) in enumerate(spans):
        if name_i == meta_i:
            s = end - start
            g = grid_s.get(i, 0.0)
            lines.append(f"analytics.meta_distribution_rested [{(counters or {}).get('point')}]: "
                         f"{s:.3f} s, analytics.radial_grid {g:.3f} s ({g / s if s else 0:.0%})")
    return lines
