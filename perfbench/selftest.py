"""Self-test of the benchmark: each output check rejects a perturbed output,
the span summary computes self time, and BENCHMARK.json names exactly the
metrics run.py reports.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

QS = [0.1, 0.5, 0.9]
PROTOCOLS = ["block", "classical"]


def sweep_rows():
    sweep, analytic = [], []
    for p in PROTOCOLS:
        for q in QS:
            restless = 0.3 * q
            sweep.append({"protocol": p, "system": "restless", "q": str(q),
                          "estimate": repr(restless), "ci95": "0.004"})
            sweep.append({"protocol": p, "system": "rested", "q": str(q),
                          "estimate": repr(restless + 0.01), "ci95": "0.004"})
            analytic.append({"protocol": p, "q": str(q), "beta": "",
                             "value": repr(restless + 0.005)})
    return sweep, analytic


def meta_rows():
    return [{"empirical": "0.9766", "analytic": "0.97736", "passes": "1"},
            {"empirical": "0.0", "analytic": "0.0", "passes": "1"}]


def regret_rows(K=50, T=20, D=10):
    return [{"k": str(k), "mean_regret": repr(0.5 * k),
             "envelope": repr(wl.regret_envelope(k, T, D))} for k in range(1, K + 1)]


class SweepChecks(unittest.TestCase):
    def test_clean_output_passes(self):
        s, a = sweep_rows()
        self.assertEqual(wl.check_sweep_rows(s, a, 12, rested_order=True), (12, 0))
        self.assertEqual(wl.check_sweep_rows(s, a, 6, rested_order=False), (6, 0))

    def test_shifted_analytic_fails(self):
        for rested_order in (True, False):
            s, a = sweep_rows()
            a[1]["value"] = repr(float(a[1]["value"]) + 0.05)
            self.assertEqual(wl.check_sweep_rows(s, a, 6, rested_order)[1], 1)

    def test_wide_ci_allows_larger_gap(self):
        s, a = sweep_rows()
        a[0]["value"] = repr(float(a[0]["value"]) + 0.05)
        s[0]["ci95"] = "0.02"  # 3 * ci95 = 0.06 covers the gap
        self.assertEqual(wl.check_sweep_rows(s, a, 6, rested_order=False)[1], 0)

    def test_rested_below_restless_fails(self):
        s, a = sweep_rows()
        s[3]["estimate"] = repr(float(s[2]["estimate"]) - 0.001)
        self.assertEqual(wl.check_sweep_rows(s, a, 12, rested_order=True)[1], 1)
        self.assertEqual(wl.check_sweep_rows(s, a, 6, rested_order=False)[1], 0)

    def test_missing_point_fails(self):
        s, a = sweep_rows()
        self.assertEqual(wl.check_sweep_rows(s[2:], a, 12, rested_order=True), (12, 2))
        self.assertEqual(wl.check_sweep_rows(s, a[1:], 6, rested_order=False), (6, 1))


class MetaChecks(unittest.TestCase):
    def test_clean_output_passes(self):
        self.assertEqual(wl.check_meta_rows(meta_rows(), 2), (2, 0))

    def test_shifted_analytic_fails_despite_flag(self):
        rows = meta_rows()
        rows[0]["analytic"] = repr(float(rows[0]["analytic"]) + 0.05)
        self.assertEqual(wl.check_meta_rows(rows, 2), (2, 1))

    def test_cli_flag_fails(self):
        rows = meta_rows()
        rows[1]["passes"] = "0"
        self.assertEqual(wl.check_meta_rows(rows, 2), (2, 1))

    def test_missing_point_fails(self):
        self.assertEqual(wl.check_meta_rows(meta_rows()[:1], 2), (2, 1))


class RegretChecks(unittest.TestCase):
    def test_clean_output_passes(self):
        self.assertEqual(wl.check_regret_rows(regret_rows(), 20, 10, 50), (50, 0))

    def test_regret_above_envelope_fails(self):
        rows = regret_rows()
        rows[9]["mean_regret"] = repr(float(rows[9]["envelope"]) + 0.05)
        self.assertEqual(wl.check_regret_rows(rows, 20, 10, 50), (50, 1))

    def test_wrong_envelope_fails(self):
        rows = regret_rows()
        rows[0]["envelope"] = repr(float(rows[0]["envelope"]) + 0.05)
        self.assertEqual(wl.check_regret_rows(rows, 20, 10, 50), (50, 1))

    def test_missing_rows_fail(self):
        self.assertEqual(wl.check_regret_rows(regret_rows()[:40], 20, 10, 50), (50, 10))

    def test_envelope_matches_program(self):
        sys.path.insert(0, str(run.SRC))
        from alohactrl.bandit import regret_envelope_explicit
        for k in (1, 2, 100, 5000):
            self.assertTrue(math.isclose(wl.regret_envelope(k, 20, 10),
                                         regret_envelope_explicit(k, 20, 10), rel_tol=1e-12))


class SpanSummary(unittest.TestCase):
    def test_self_time_and_recursion(self):
        dump = {"names": ["a", "b"], "missing": [], "spans": [
            (0, 0.0, 10.0, -1, None),
            (1, 1.0, 3.0, 0, {"bytes": 5}),
            (0, 4.0, 8.0, 0, None),      # a inside a: inclusive time counted once
            (1, 5.0, 6.0, 2, {"bytes": 7}),
        ]}
        out = tracer.summarize(dump)
        self.assertEqual(out["a"]["calls"], 2)
        self.assertAlmostEqual(out["a"]["s"], 10.0)
        self.assertAlmostEqual(out["a"]["self_s"], 4.0 + 3.0)
        self.assertAlmostEqual(out["b"]["self_s"], 3.0)
        self.assertEqual(out["b"]["bytes"], 12)

    def test_point_breakdown_gives_grid_share(self):
        dump = {"names": ["analytics.meta_distribution_rested", "analytics.radial_grid"],
                "missing": [], "spans": [
                    (0, 0.0, 10.0, -1, {"point": "block q=0.95 beta=0.9"}),
                    (1, 1.0, 9.0, 0, {"nodes": 45232}),
                ]}
        [line] = tracer.point_breakdown(dump)
        self.assertIn("block q=0.95 beta=0.9", line)
        self.assertIn("(80%)", line)

    def test_max_call_bytes_keeps_maximum(self):
        dump = {"names": ["e"], "missing": [], "spans": [
            (0, 0.0, 1.0, -1, {"call_bytes": 3}), (0, 1.0, 2.0, -1, {"call_bytes": 9}),
            (0, 2.0, 3.0, -1, {"call_bytes": 4})]}
        self.assertEqual(tracer.summarize(dump)["e"]["call_bytes"], 9)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_run(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        layer = run.per_layer_spec()
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, layer)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(wl.WORKLOADS))

    def test_crashed_worker_fails_every_operation(self):
        reps = [{"checked": 40, "failed": 0, "expected": 40, "wall_s": 1.0},
                {"crashed": True}]
        self.assertEqual(run.tally(reps), (80, 40))


if __name__ == "__main__":
    unittest.main()
