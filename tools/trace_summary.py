#!/usr/bin/env python3
"""Summarize a Chrome trace written by the eardec observability layer.

Usage: trace_summary.py <trace.json|stats.json> [--by-thread]

Prints one row per span name: call count, total/mean/max duration, and the
share of the trace's busiest lane the name accounts for. With --by-thread,
adds a per-lane breakdown (lane label from the thread_name metadata).
Works on any Chrome trace-event file that uses "X" complete events.

Also accepts a metrics dump (`eardec_cli --metrics x.json`, EARDEC_METRICS,
or a saved `/stats.json` scrape from the live stats endpoint): renders the
counters/gauges and a histogram table with count, sum, mean and the
p50/p90/p99 latency quantiles the registry derives from its log2 buckets.
"""
import json
import sys
from collections import defaultdict


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


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
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

    if "--by-thread" in argv[2:]:
        print()
        for label, names in sorted(by_thread(events, threads).items()):
            busy = sum(s["total_us"] for s in names.values())
            print(f"[{label}] busy {fmt_us(busy)}")
            for name, s in sorted(names.items(),
                                  key=lambda kv: -kv[1]["total_us"]):
                print(f"  {name:<26}{s['count']:>8}"
                      f"{fmt_us(s['total_us']):>12}")
    return 0


if __name__ == "__main__":
    # Piping the summary into head/less must not traceback on SIGPIPE.
    import contextlib
    import signal
    with contextlib.suppress(AttributeError, ValueError):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv))
