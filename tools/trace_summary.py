#!/usr/bin/env python3
"""Summarize a Chrome trace written by the eardec observability layer.

Usage: trace_summary.py <trace.json|stats.json> [--by-thread]
                        [--serve-json <oracle_serve.json>] [--min-queries N]

Prints one row per span name: call count, total/mean/max duration, and the
share of the trace's busiest lane the name accounts for. With --by-thread,
adds a per-lane breakdown (lane label from the thread_name metadata).
Works on any Chrome trace-event file that uses "X" complete events.

With --serve-json, cross-checks a traced bench_oracle_serve run against the
bench_results/oracle_serve.json snapshot it wrote. A served request is a
serve.request span; the oracle.scalar / oracle.batch span nested in it on
the same lane covers the same interval as the snapshot's service latency.
So the per-query mean of those nested spans (batch spans amortized by
their `args.queries`) must lie within [0.5, 2.0] x the mean of mean_ns
over that path's cells, and the trace must hold at least --min-queries
(default 1) of them. Either failure exits 1. Oracle spans outside any
serve.request (in-process callers, such as the closed-loop cells) are
not requests and are ignored.

Also accepts a metrics dump (`eardec_cli --metrics x.json`, EARDEC_METRICS,
or a saved `/stats.json` scrape from the live stats endpoint): renders the
counters/gauges and a histogram table with count, sum, mean and the
p50/p90/p99 latency quantiles the registry derives from its log2 buckets.
"""
import argparse
import bisect
import json
import sys
from collections import defaultdict

RATIO_LOW, RATIO_HIGH = 0.5, 2.0
SERVE_SPAN_PATHS = {"oracle.scalar": "scalar", "oracle.batch": "batch"}


def summarize(events):
    spans = defaultdict(lambda: {"count": 0, "total_us": 0.0, "max_us": 0.0})
    threads = {}  # tid -> label
    lane_busy = defaultdict(float)
    for e in events:
        ph = e.get("ph")
        if ph == "M" and e.get("name") == "thread_name":
            threads[e.get("tid")] = e["args"]["name"]
        elif ph == "X":
            dur = float(e.get("dur", 0.0))
            s = spans[e["name"]]
            s["count"] += 1
            s["total_us"] += dur
            s["max_us"] = max(s["max_us"], dur)
            lane_busy[e.get("tid")] += dur
    return spans, threads, lane_busy


def by_thread(events, threads):
    lanes = defaultdict(lambda: defaultdict(lambda: {"count": 0,
                                                     "total_us": 0.0}))
    for e in events:
        if e.get("ph") != "X":
            continue
        label = threads.get(e.get("tid"), f"tid-{e.get('tid')}")
        s = lanes[label][e["name"]]
        s["count"] += 1
        s["total_us"] += float(e.get("dur", 0.0))
    return lanes


def fmt_count(v):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if v >= scale:
            return f"{v / scale:.2f}{suffix}"
    return f"{v:.0f}"


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def summarize_metrics(doc):
    """Renders a metrics-registry dump (the /stats.json route or
    --metrics/EARDEC_METRICS output): histogram quantile table first —
    that is what you scraped the endpoint for — then non-zero counters
    and gauges."""
    hists = doc.get("histograms", {})
    populated = {k: v for k, v in hists.items() if v.get("count", 0) > 0}
    if populated:
        print(f"{'histogram':<36}{'count':>8}{'mean':>10}"
              f"{'p50':>10}{'p90':>10}{'p99':>10}")
        print("-" * 84)
        for name, h in sorted(populated.items()):
            mean = h["sum"] / h["count"]
            print(f"{name:<36}{h['count']:>8}{fmt_count(mean):>10}"
                  f"{fmt_count(h['p50']):>10}{fmt_count(h['p90']):>10}"
                  f"{fmt_count(h['p99']):>10}")
    counters = {k: v for k, v in doc.get("counters", {}).items() if v}
    if counters:
        print()
        print(f"{'counter':<48}{'value':>12}")
        print("-" * 60)
        for name, v in sorted(counters.items()):
            print(f"{name:<48}{fmt_count(v):>12}")
    gauges = {k: v for k, v in doc.get("gauges", {}).items() if v}
    if gauges:
        print()
        print(f"{'gauge':<48}{'value':>12}")
        print("-" * 60)
        for name, v in sorted(gauges.items()):
            print(f"{name:<48}{v:>12.4f}")
    if not (populated or counters or gauges):
        print("metrics dump holds no populated instruments")
        return 1
    return 0


def nested_in_requests(events):
    """The oracle spans that lie inside a serve.request span on their own
    lane. Requests on one lane never overlap, so only the latest one to
    start at or before a span can contain it."""
    requests = defaultdict(list)  # tid -> sorted [(start, end)]
    for e in events:
        if e.get("ph") == "X" and e.get("name") == "serve.request":
            ts = float(e.get("ts", 0.0))
            requests[e.get("tid")].append((ts, ts + float(e.get("dur", 0.0))))
    for spans in requests.values():
        spans.sort()
    starts = {tid: [r[0] for r in spans] for tid, spans in requests.items()}
    for e in events:
        if e.get("ph") != "X" or e.get("name") not in SERVE_SPAN_PATHS:
            continue
        tid = e.get("tid")
        ts = float(e.get("ts", 0.0))
        i = bisect.bisect_right(starts.get(tid, []), ts) - 1
        if i >= 0 and ts + float(e.get("dur", 0.0)) <= requests[tid][i][1]:
            yield e


def check_serve_spans(events, serve_path, min_queries):
    """Per-query means of the requests' oracle spans vs the snapshot's
    matching cells; returns the exit code."""
    paths = defaultdict(lambda: {"spans": 0, "queries": 0, "dur_us": 0.0})
    for e in nested_in_requests(events):
        p = paths[SERVE_SPAN_PATHS[e["name"]]]
        p["spans"] += 1
        p["queries"] += int(e.get("args", {}).get("queries", 1))
        p["dur_us"] += float(e.get("dur", 0.0))
    spans = sum(p["spans"] for p in paths.values())
    print(f"\nvalidate: {spans} oracle.scalar/oracle.batch spans inside "
          "serve.request spans")
    if spans < min_queries:
        print(f"FAIL: fewer than --min-queries={min_queries} served requests")
        return 1
    with open(serve_path, encoding="utf-8") as f:
        cells = json.load(f).get("cells", [])
    violations = 0
    for path, p in sorted(paths.items()):
        means = [c["mean_ns"] for c in cells
                 if c.get("path") == path and c.get("mean_ns", 0) > 0]
        if not means or p["queries"] == 0:
            print(f"validate: no {path} cells in {serve_path}; skipped")
            continue
        cell_mean_ns = sum(means) / len(means)
        span_mean_ns = 1e3 * p["dur_us"] / p["queries"]
        ratio = span_mean_ns / cell_mean_ns
        ok = RATIO_LOW <= ratio <= RATIO_HIGH
        print(f"validate: {path} spans {span_mean_ns:.0f}ns/query over "
              f"{p['spans']} spans ({p['queries']} queries) vs cells "
              f"{cell_mean_ns:.0f}ns (ratio {ratio:.2f}) "
              f"{'OK' if ok else 'OUT OF RANGE'}")
        violations += not ok
    return 1 if violations else 0


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.strip(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path")
    ap.add_argument("--by-thread", action="store_true")
    ap.add_argument("--serve-json")
    ap.add_argument("--min-queries", type=int, default=1)
    args = ap.parse_args(argv[1:])
    with open(args.path, encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict) and "traceEvents" not in doc and (
            "histograms" in doc or "counters" in doc):
        return summarize_metrics(doc)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    spans, threads, lane_busy = summarize(events)
    if not spans:
        print("no complete ('X') events in trace")
        return 1

    print(f"{'span':<28}{'count':>8}{'total':>12}{'mean':>12}{'max':>12}")
    print("-" * 72)
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["total_us"]):
        mean = s["total_us"] / s["count"]
        print(f"{name:<28}{s['count']:>8}{fmt_us(s['total_us']):>12}"
              f"{fmt_us(mean):>12}{fmt_us(s['max_us']):>12}")

    if args.by_thread:
        print()
        for label, names in sorted(by_thread(events, threads).items()):
            busy = sum(s["total_us"] for s in names.values())
            print(f"[{label}] busy {fmt_us(busy)}")
            for name, s in sorted(names.items(),
                                  key=lambda kv: -kv[1]["total_us"]):
                print(f"  {name:<26}{s['count']:>8}"
                      f"{fmt_us(s['total_us']):>12}")
    if args.serve_json is not None:
        return check_serve_spans(events, args.serve_json, args.min_queries)
    return 0


if __name__ == "__main__":
    # Piping the summary into head/less must not traceback on SIGPIPE.
    import contextlib
    import signal
    with contextlib.suppress(AttributeError, ValueError):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv))
