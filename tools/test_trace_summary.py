#!/usr/bin/env python3
"""Unit tests for trace_summary.py: span traces, metrics dumps, empty
traces (exit 1), and the --serve-json cross-check of oracle span means
against an oracle_serve.json snapshot. Run directly or via ctest
(trace_summary_test)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "trace_summary.py")


def run(doc, *args, serve=None):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        if serve is not None:
            serve_path = os.path.join(d, "oracle_serve.json")
            with open(serve_path, "w") as f:
                json.dump(serve, f)
            args = (*args, "--serve-json", serve_path)
        return subprocess.run([sys.executable, SCRIPT, path, *args],
                              capture_output=True, text=True)


def served(name, ts, dur, queries, tid=1):
    """One served request: a serve.request span holding the oracle span
    and a serve.write span on the same lane."""
    return [span("serve.request", ts, dur + 2, tid=tid),
            span(name, ts + 0.5, dur, tid=tid, args={"queries": queries}),
            span("serve.write", ts + dur + 1, 0.5, tid=tid)]


def serve_snapshot(scalar_mean_ns, batch_mean_ns):
    return {"cells": [
        {"mix": "uniform", "path": "scalar", "mean_ns": scalar_mean_ns},
        {"mix": "uniform", "path": "batch", "mean_ns": batch_mean_ns}]}


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

    def test_serve_json_agreeing_means_pass(self):
        # 1 us scalar spans vs 1000 ns cells: ratio 1.0.
        doc = {"traceEvents": [e for i in range(4)
                               for e in served("oracle.scalar", 10 * i, 1.0,
                                               1)]}
        r = run(doc, "--min-queries", "4", serve=serve_snapshot(1000, 100))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ratio 1.00", r.stdout)

    def test_serve_json_threefold_mismatch_exits_one(self):
        doc = {"traceEvents": [e for i in range(4)
                               for e in served("oracle.scalar", 10 * i, 3.0,
                                               1)]}
        r = run(doc, serve=serve_snapshot(1000, 100))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("OUT OF RANGE", r.stdout)

    def test_serve_json_amortizes_batch_spans_by_queries(self):
        # A 6.4 us span answering 64 queries is 100 ns per query, which
        # agrees with a 100 ns batch cell only once amortized.
        doc = {"traceEvents": [*served("oracle.batch", 0, 6.4, 64),
                               *served("oracle.batch", 20, 6.4, 64)]}
        r = run(doc, serve=serve_snapshot(1000, 100))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("batch spans 100ns/query over 2 spans (128 queries)",
                      r.stdout)

    def test_serve_json_ignores_oracle_spans_outside_requests(self):
        # In-process callers' spans (no serve.request around them, or one
        # on another lane) are not requests: ten 9 us strays must not
        # drag the 1 us served mean out of range.
        doc = {"traceEvents": [
            *served("oracle.scalar", 0, 1.0, 1),
            *[span("oracle.scalar", 100 + 10 * i, 9.0, args={"queries": 1})
              for i in range(10)],
            span("oracle.scalar", 0.6, 0.5, tid=2, args={"queries": 1})]}
        r = run(doc, "--min-queries", "1", serve=serve_snapshot(1000, 100))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("1 oracle.scalar/oracle.batch spans inside", r.stdout)

    def test_serve_json_too_few_requests_exits_one(self):
        doc = {"traceEvents": served("oracle.scalar", 0, 1.0, 1)}
        r = run(doc, "--min-queries", "100", serve=serve_snapshot(1000, 100))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
