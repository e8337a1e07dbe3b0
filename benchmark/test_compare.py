"""Unit tests for compare.py on synthetic pair files.

Run from benchmark/: python3 -m unittest -v test_compare
"""

import unittest
from unittest import mock

import compare

SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
    "end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [],
}


def make_doc(values, pairs=10, failed=None, alternate=True, correct=True):
    """values[(workload, metric, side)] -> list of per-pair values."""
    runs = []
    for k in range(pairs):
        first = "parent" if (k % 2 == 0 or not alternate) else "change"
        for workload in ("w1", "w2"):
            # lat_ms and rate everywhere, plus the workload's own metrics.
            names = ["lat_ms", "rate"] + sorted(
                {m for (w, m, _) in values
                 if w == workload and m not in ("lat_ms", "rate")})
            for side in ("parent", "change"):
                metrics = {}
                for metric in names:
                    series = values.get((workload, metric, side))
                    if series is None:
                        series = values.get((workload, metric, "parent"),
                                            [1.0] * pairs)
                    metrics[metric] = {"value": series[k], "unit": "u"}
                n_failed = (failed or {}).get((workload, side), 0)
                runs.append({"pair": k, "seed": 100 + k, "first": first,
                             "workload": workload, "side": side,
                             "result": {"correct": correct,
                                        "attempted": 1000,
                                        "failed": n_failed,
                                        "metrics": metrics}})
    return {"spec": SPEC, "runs": runs}


def steady(center, pairs=10, jitter=0.01):
    """Deterministic values within +-jitter of center."""
    return [center * (1 + jitter * ((k % 5) - 2) / 2) for k in range(pairs)]


def verdict(report, workload, metric):
    for row in report["rows"]:
        if row["workload"] == workload and row["metric"] == metric:
            return row["verdict"]
    raise AssertionError(f"no row for {workload}:{metric}")


class CompareTest(unittest.TestCase):
    def test_identical_sides_pass(self):
        doc = make_doc({("w1", "lat_ms", "parent"): steady(1.0)})
        report = compare.analyze(doc)
        self.assertTrue(compare.passed(report), compare.format_report(report))
        self.assertEqual(verdict(report, "w1", "lat_ms"), "ok")

    def test_claim_holds_on_consistent_win(self):
        doc = make_doc({("w1", "lat_ms", "parent"): steady(1.0),
                        ("w1", "lat_ms", "change"): steady(0.8)})
        report = compare.analyze(doc, ["w1:lat_ms"])
        self.assertEqual(verdict(report, "w1", "lat_ms"), "claim holds")
        self.assertTrue(compare.passed(report))

    def test_claim_needs_nine_of_ten_wins(self):
        change = steady(0.8)
        change[0] = change[1] = 1.5  # Two lost pairs: 8/10 wins.
        doc = make_doc({("w1", "lat_ms", "parent"): steady(1.0),
                        ("w1", "lat_ms", "change"): change})
        report = compare.analyze(doc, ["w1:lat_ms"])
        self.assertEqual(verdict(report, "w1", "lat_ms"), "claim not met")
        self.assertFalse(compare.passed(report))

    def test_claim_needs_gap_beyond_parent_iqr(self):
        parent = steady(1.0, jitter=0.2)
        change = [p - 0.001 for p in parent]  # Wins every pair, by a hair.
        doc = make_doc({("w1", "lat_ms", "parent"): parent,
                        ("w1", "lat_ms", "change"): change})
        report = compare.analyze(doc, ["w1:lat_ms"])
        self.assertEqual(verdict(report, "w1", "lat_ms"), "claim not met")

    def test_claim_in_wrong_direction_not_met(self):
        doc = make_doc({("w1", "rate", "parent"): steady(100.0),
                        ("w1", "rate", "change"): steady(80.0)})
        report = compare.analyze(doc, ["w1:rate"])
        self.assertEqual(verdict(report, "w1", "rate"), "claim not met")

    def test_regression_beyond_bound(self):
        doc = make_doc({("w2", "rate", "parent"): steady(100.0),
                        ("w2", "rate", "change"): steady(85.0)})
        report = compare.analyze(doc)
        self.assertEqual(verdict(report, "w2", "rate"), "regression")
        self.assertFalse(compare.passed(report))

    def test_small_slowdown_within_bound_is_ok(self):
        doc = make_doc({("w2", "lat_ms", "parent"): steady(1.0),
                        ("w2", "lat_ms", "change"): steady(1.05)})
        report = compare.analyze(doc)
        self.assertEqual(verdict(report, "w2", "lat_ms"), "ok")

    def test_noisy_metric_is_unresolved(self):
        noisy = [1.0, 2.0] * 5
        doc = make_doc({("w1", "lat_ms", "parent"): noisy,
                        ("w1", "lat_ms", "change"): noisy})
        report = compare.analyze(doc)
        self.assertEqual(verdict(report, "w1", "lat_ms"), "unresolved")
        self.assertFalse(compare.passed(report))

    def test_noisy_metric_with_total_separation_is_better(self):
        noisy = [1.0, 2.0] * 5
        doc = make_doc({("w1", "lat_ms", "parent"): noisy,
                        ("w1", "lat_ms", "change"): [0.5] * 10})
        report = compare.analyze(doc)
        self.assertEqual(verdict(report, "w1", "lat_ms"), "better")

    def test_rising_failures_reject(self):
        doc = make_doc({}, failed={("w1", "change"): 5})
        report = compare.analyze(doc)
        self.assertTrue(report["rejected"])
        self.assertFalse(compare.passed(report))

    def test_too_few_pairs_is_an_error(self):
        doc = make_doc({}, pairs=9)
        report = compare.analyze(doc)
        self.assertTrue(any("pairs" in e for e in report["errors"]))
        self.assertFalse(compare.passed(report))

    def test_pairs_must_alternate(self):
        doc = make_doc({}, alternate=False)
        report = compare.analyze(doc)
        self.assertTrue(any("alternate" in e for e in report["errors"]))

    def test_missing_workload_is_an_error(self):
        doc = make_doc({})
        doc["runs"] = [r for r in doc["runs"] if r["workload"] != "w2"]
        report = compare.analyze(doc)
        self.assertTrue(any("w2:lat_ms" in e for e in report["errors"]))
        self.assertFalse(compare.passed(report))

    def test_metric_missing_on_one_side_is_an_error(self):
        doc = make_doc({})
        for r in doc["runs"]:
            if r["workload"] == "w1" and r["side"] == "change":
                del r["result"]["metrics"]["rate"]
        report = compare.analyze(doc)
        self.assertTrue(any("w1:rate" in e for e in report["errors"]))
        self.assertFalse(compare.passed(report))

    def test_metric_short_of_pairs_is_an_error(self):
        doc = make_doc({})
        doc["runs"] = [r for r in doc["runs"]
                       if not (r["workload"] == "w1" and r["pair"] == 3)]
        report = compare.analyze(doc)
        self.assertTrue(any("w1:lat_ms" in e and "9 pairs" in e
                            for e in report["errors"]))

    def test_workload_gate_catches_regression(self):
        gates = [{"workload": "w1", "name": "ack_ms", "unit": "ms",
                  "better": "lower", "bound": 0.1}]
        doc = make_doc({("w1", "ack_ms", "parent"): steady(5.0),
                        ("w1", "ack_ms", "change"): steady(6.0)})
        with mock.patch.object(compare, "WORKLOAD_GATES", gates):
            report = compare.analyze(doc)
        self.assertEqual(verdict(report, "w1", "ack_ms"), "regression")
        self.assertFalse(compare.passed(report))

    def test_workload_gate_must_be_reported(self):
        gates = [{"workload": "w2", "name": "ack_ms", "unit": "ms",
                  "better": "lower", "bound": 0.1}]
        with mock.patch.object(compare, "WORKLOAD_GATES", gates):
            report = compare.analyze(make_doc({}))
        self.assertTrue(any("w2:ack_ms" in e for e in report["errors"]))

    def test_incorrect_run_is_an_error(self):
        doc = make_doc({}, correct=False)
        self.assertFalse(compare.passed(compare.analyze(doc)))


if __name__ == "__main__":
    unittest.main()
