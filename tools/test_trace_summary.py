#!/usr/bin/env python3
"""Unit tests for trace_summary.py: span traces, metrics dumps, and empty
traces (exit 1). Run directly or via ctest (trace_summary_test)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "trace_summary.py")


def run(doc, *args):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return subprocess.run([sys.executable, SCRIPT, path, *args],
                              capture_output=True, text=True)


def span(name, ts, dur, tid=1, args=None):
    e = {"ph": "X", "name": name, "ts": ts, "dur": dur, "pid": 1, "tid": tid}
    if args:
        e["args"] = args
    return e


class TraceSummaryTest(unittest.TestCase):
    def test_span_trace(self):
        doc = {"traceEvents": [span("apsp.process", 0, 100),
                               span("apsp.process", 200, 300)]}
        r = run(doc)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("apsp.process", r.stdout)
        self.assertIn("2", r.stdout)

    def test_empty_trace_exits_one(self):
        r = run({"traceEvents": []})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_metrics_dump(self):
        doc = {"histograms": {"oracle.query.scalar.latency_ns": {
            "count": 4, "sum": 4000, "p50": 900, "p90": 1100, "p99": 1300}},
            "counters": {"oracle.serve.queries": 4}, "gauges": {}}
        r = run(doc)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("oracle.query.scalar.latency_ns", r.stdout)
        self.assertIn("oracle.serve.queries", r.stdout)


if __name__ == "__main__":
    unittest.main()
