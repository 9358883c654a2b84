#!/usr/bin/env python3
"""Unit tests for critical_path.py: tree stitching from qid/span/parent
args, critical-path attribution (descend into the latest-finishing child,
charge self time along the way), incomplete-tree skipping, and the
--serve-json cross-validation gate. Run directly or via ctest
(critical_path_test)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "critical_path.py")


def linked(name, ts, dur, qid, span, parent, tid=1):
    return {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": 1,
            "tid": tid, "args": {"qid": qid, "span": span, "parent": parent}}


def batch_tree(qid, ts=0, dur=1000):
    """One stitched oracle.batch query: root with classify/drain/recompose
    phases and two work units on another lane, drain finishing last."""
    return [
        linked("oracle.batch", ts, dur, qid, 1, 0),
        linked("oracle.classify", ts + 10, 100, qid, 2, 1),
        linked("oracle.drain", ts + 120, 700, qid, 3, 1),
        linked("oracle.recompose", ts + 830, 100, qid, 4, 1),
        linked("oracle.work_unit", ts + 150, 300, qid, 5, 1, tid=2),
        linked("oracle.work_unit", ts + 460, 200, qid, 6, 1, tid=2),
    ]


def run(events, *args):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)
        extra = []
        for a in args:
            if isinstance(a, dict):
                spath = os.path.join(d, "serve.json")
                with open(spath, "w") as f:
                    json.dump(a, f)
                extra += ["--serve-json", spath]
            else:
                extra.append(a)
        return subprocess.run([sys.executable, SCRIPT, path, *extra],
                              capture_output=True, text=True)


class CriticalPathTest(unittest.TestCase):
    def test_attribution(self):
        r = run(batch_tree(qid=7))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("1 complete trees", r.stdout)
        self.assertIn("[oracle.batch]", r.stdout)
        # The path root -> recompose (latest-finishing child, ends at 930):
        # recompose is a leaf so it is charged in full (100us), the root
        # keeps dur - child dur = 900us.
        self.assertIn("oracle.recompose", r.stdout)
        self.assertIn("900.0us", r.stdout)
        self.assertIn("100.0us", r.stdout)

    def test_multiple_queries_grouped_by_kind(self):
        events = batch_tree(qid=1) + batch_tree(qid=2, ts=5000)
        events.append(linked("oracle.scalar", 9000, 50, 3, 1, 0))
        r = run(events)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("3 complete trees", r.stdout)
        self.assertIn("[oracle.batch] 2 trees", r.stdout)
        self.assertIn("[oracle.scalar] 1 trees", r.stdout)

    def test_dangling_parent_skipped(self):
        # qid 9's root was overwritten by a ring wrap: its children point
        # at a span id that is not in the trace. Must be skipped, and with
        # no complete trees left the tool fails.
        events = [linked("oracle.classify", 10, 100, 9, 2, 1)]
        r = run(events)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("1 incomplete", r.stdout)

    def test_no_linked_events(self):
        r = run([{"ph": "X", "name": "plain", "ts": 0, "dur": 5,
                  "pid": 1, "tid": 1}])
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("no span-linked", r.stdout)

    def test_serve_json_validation_passes(self):
        serve = {"cells": [
            {"path": "batch", "mix": "uniform", "mean_ns": 1_000_000.0}]}
        r = run(batch_tree(qid=1), serve)  # root dur 1000us = 1e6 ns
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ratio 1.00", r.stdout)
        self.assertIn("OK", r.stdout)

    def test_serve_json_batch_amortized_by_queries_arg(self):
        # The snapshot's mean_ns is per query while a batch root span covers
        # the whole batch; the root's args.queries amortizes it.
        events = batch_tree(qid=1)
        events[0]["args"]["queries"] = 10
        serve = {"cells": [
            {"path": "batch", "mix": "uniform", "mean_ns": 100_000.0}]}
        r = run(events, serve)  # 1000us root / 10 queries = 1e5 ns each
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("(10 queries)", r.stdout)
        self.assertIn("ratio 1.00", r.stdout)

    def test_serve_json_validation_fails_on_mismatch(self):
        serve = {"cells": [
            {"path": "batch", "mix": "uniform", "mean_ns": 10_000_000.0}]}
        r = run(batch_tree(qid=1), serve)  # ratio 0.1, outside [0.5, 2.0]
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("OUT OF RANGE", r.stdout)

    def test_min_queries_gate(self):
        r = run(batch_tree(qid=1), "--min-queries=2")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("fewer than", r.stdout)


if __name__ == "__main__":
    unittest.main()
