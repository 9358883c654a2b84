#!/usr/bin/env python3
"""Unit tests for compare_bench.py: the regression sentinel must flag a
synthetic 2x slowdown (exit 1), pass identical snapshots (exit 0), respect
the direction of rate metrics, honor the noise floor, and reject malformed
inputs (exit 2). Run directly or via ctest (compare_bench_test)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "compare_bench.py")


def snapshot(cells):
    return {
        "schema_version": 3,
        "git_sha": "deadbeef",
        "smoke": True,
        "cells": cells,
    }


def run(args, *docs):
    """Writes each doc to a temp file and runs compare_bench.py on them."""
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, doc in enumerate(docs):
            path = os.path.join(d, f"snap{i}.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, SCRIPT, *paths, *args],
            capture_output=True, text=True)


class CompareBenchTest(unittest.TestCase):
    def test_identical_snapshots_pass(self):
        doc = snapshot([{"method": "compact", "seconds": 0.1, "qps": 1000.0,
                         "p99_ns": 500.0}])
        r = run(["--threshold", "25%"], doc, doc)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("compare_bench: OK", r.stdout)

    def test_2x_slowdown_fails(self):
        base = snapshot([{"method": "compact", "seconds": 0.1,
                          "qps": 1000.0}])
        slow = snapshot([{"method": "compact", "seconds": 0.2,
                          "qps": 500.0}])
        r = run(["--threshold", "25%"], base, slow)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        # Both the time metric and the rate metric went the bad way.
        self.assertIn("seconds", r.stderr)
        self.assertIn("qps", r.stderr)

    def test_speedup_passes(self):
        base = snapshot([{"method": "compact", "seconds": 0.2,
                          "qps": 500.0}])
        fast = snapshot([{"method": "compact", "seconds": 0.1,
                          "qps": 1000.0}])
        r = run(["--threshold", "25%"], base, fast)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_qps_drop_is_direction_aware(self):
        # seconds steady, throughput halved: must still be a regression.
        base = snapshot([{"method": "compact", "seconds": 0.1,
                          "qps": 1000.0}])
        slow = snapshot([{"method": "compact", "seconds": 0.1,
                          "qps": 400.0}])
        r = run(["--threshold", "25%"], base, slow)
        self.assertEqual(r.returncode, 1)
        self.assertIn("qps", r.stderr)

    def test_per_s_suffix_is_a_rate_not_a_time(self):
        # "nodes_per_s" ends with "_s" too; it must classify as a rate, so
        # a throughput drop is a regression (not an inverted "improvement").
        base = snapshot([{"method": "a", "seconds": 0.1,
                          "nodes_per_s": 1000.0}])
        slow = snapshot([{"method": "a", "seconds": 0.1,
                          "nodes_per_s": 400.0}])
        r = run(["--threshold", "25%"], base, slow)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("nodes_per_s", r.stderr)

    def test_rate_over_subfloor_duration_is_not_gated(self):
        # The sibling "seconds" sits under the floor on both sides: the
        # rate computed from it is noise and must be reported, not gated.
        base = snapshot([{"method": "a", "seconds": 0.0002,
                          "nodes_per_s": 1000.0}])
        slow = snapshot([{"method": "a", "seconds": 0.0004,
                          "nodes_per_s": 400.0}])
        r = run(["--threshold", "25%", "--min-seconds", "0.002"], base, slow)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("below noise floor", r.stdout)

    def test_noise_floor_suppresses_tiny_timings(self):
        base = snapshot([{"method": "compact", "seconds": 0.0001}])
        slow = snapshot([{"method": "compact", "seconds": 0.0005}])
        r = run(["--threshold", "25%", "--min-seconds", "0.002"], base, slow)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("below noise floor", r.stdout)

    def test_noise_floor_normalizes_ns_metrics(self):
        base = snapshot([{"method": "compact", "p99_ns": 100.0}])
        slow = snapshot([{"method": "compact", "p99_ns": 900.0}])
        r = run(["--threshold", "25%", "--min-seconds", "0.002"], base, slow)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_cells_match_by_identity_not_position(self):
        base = snapshot([{"method": "a", "seconds": 0.1},
                         {"method": "b", "seconds": 1.0}])
        # Same numbers, reversed order: no diff.
        cand = snapshot([{"method": "b", "seconds": 1.0},
                         {"method": "a", "seconds": 0.1}])
        r = run(["--threshold", "1%"], base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_identity_counts_are_not_gated(self):
        # "queries" and "rounds" are workload shape, not performance.
        base = snapshot([{"method": "a", "queries": 100, "seconds": 0.1}])
        cand = snapshot([{"method": "a", "queries": 500, "seconds": 0.1}])
        r = run(["--threshold", "25%"], base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_rejects_wrong_schema(self):
        bad = {"schema_version": 1, "cells": []}
        good = snapshot([{"method": "a", "seconds": 0.1}])
        r = run([], bad, good)
        self.assertEqual(r.returncode, 2)

    def test_v3_baseline_compares_with_v4_candidate(self):
        base = snapshot([{"method": "a", "seconds": 0.1}])
        cand = dict(base, schema_version=4)
        r = run(["--threshold", "25%"], base, cand)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_rejects_disjoint_snapshots(self):
        a = snapshot([{"method": "a", "seconds": 0.1}])
        b = snapshot([{"kernel": "k", "other_s": 0.1}])
        r = run([], a, b)
        self.assertEqual(r.returncode, 2)

    def test_markdown_report_written(self):
        doc = snapshot([{"method": "a", "seconds": 0.1}])
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "delta.md")
            paths = []
            for i in range(2):
                path = os.path.join(d, f"s{i}.json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            r = subprocess.run(
                [sys.executable, SCRIPT, *paths, "--out", out],
                capture_output=True, text=True)
            self.assertEqual(r.returncode, 0, r.stderr)
            with open(out) as f:
                report = f.read()
            self.assertIn("| metric |", report)
            self.assertIn("seconds", report)

    def test_threshold_fraction_form(self):
        base = snapshot([{"method": "a", "seconds": 0.1}])
        slow = snapshot([{"method": "a", "seconds": 0.15}])
        self.assertEqual(run(["--threshold", "0.6"], base, slow).returncode, 0)
        self.assertEqual(run(["--threshold", "0.2"], base, slow).returncode, 1)


if __name__ == "__main__":
    unittest.main()
