#!/usr/bin/env python3
"""Per-query critical-path attribution over a linked Chrome trace.

Usage: critical_path.py <trace.json> [--serve-json <oracle_serve.json>]
                        [--min-queries N]

The serving layer stitches every span it emits into a per-query tree: each
"X" event carries `args.qid` (the 64-bit query id), `args.span` (the span's
id within that query) and `args.parent` (0 = tree root) — see
docs/observability.md. This tool groups events by qid, rebuilds each tree,
and walks its critical path: starting at the root, repeatedly descend into
the child that finishes last; the step from a node to that child charges
the node its duration minus the child's (self time on the path), and the
final leaf is charged in full. Summing over queries gives "where the
answer's wall-clock actually went" — through every linked span, including
ones emitted on other threads (they still parent under the query's root),
not just through phases.

Trees whose parent links dangle (the trace ring wrapped mid-query) are
counted and skipped, not guessed at.

With --serve-json, the mean per-query root-span duration per tree kind is
validated against the matching cells of a bench_results/oracle_serve.json
snapshot (oracle.batch vs path=batch mean_ns, oracle.scalar vs
path=scalar): the two measure the same interval through different
plumbing, so a ratio outside [0.5, 2.0] means the span links or the
snapshot are lying; exit 1. Batch roots carry the batch size in
`args.queries` and are amortized by it, matching the snapshot's per-query
mean_ns convention.
"""
import json
import sys
from collections import defaultdict

RATIO_LOW, RATIO_HIGH = 0.5, 2.0
ROOT_TO_CELL_PATH = {"oracle.batch": "batch", "oracle.scalar": "scalar"}


def load_linked_events(path):
    """qid -> list of {name, ts_us, dur_us, span, parent} for every "X"
    event that carries span-link args."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    queries = defaultdict(list)
    for e in events:
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        if "qid" not in args or "span" not in args:
            continue
        queries[int(args["qid"])].append({
            "name": e["name"],
            "ts": float(e.get("ts", 0.0)),
            "dur": float(e.get("dur", 0.0)),
            "span": int(args["span"]),
            "parent": int(args.get("parent", 0)),
            "queries": int(args.get("queries", 1)),
        })
    return queries


def build_tree(spans):
    """Returns (root, children) or None when the tree is incomplete:
    not exactly one root, a dangling parent link, or a duplicate span id
    (all symptoms of the ring wrapping mid-query)."""
    by_id = {}
    for s in spans:
        if s["span"] in by_id:
            return None
        by_id[s["span"]] = s
    children = defaultdict(list)
    roots = []
    for s in spans:
        if s["parent"] == 0:
            roots.append(s)
        elif s["parent"] in by_id:
            children[s["parent"]].append(s)
        else:
            return None
    if len(roots) != 1:
        return None
    return roots[0], children


def critical_path(root, children):
    """name -> microseconds charged along the path from root to the
    latest-finishing leaf."""
    charged = defaultdict(float)
    node = root
    while True:
        kids = children.get(node["span"])
        if not kids:
            charged[node["name"]] += node["dur"]
            return charged
        last = max(kids, key=lambda k: k["ts"] + k["dur"])
        charged[node["name"]] += max(0.0, node["dur"] - last["dur"])
        node = last


def fmt_us(us):
    if us >= 1e6:
        return f"{us / 1e6:.3f}s"
    if us >= 1e3:
        return f"{us / 1e3:.3f}ms"
    return f"{us:.1f}us"


def validate_against_serve(kinds, serve_path):
    """Mean root duration per tree kind vs the snapshot's matching cells;
    returns the number of violations."""
    with open(serve_path, encoding="utf-8") as f:
        doc = json.load(f)
    cells = doc.get("cells", [])
    violations = 0
    for root_name, stats in sorted(kinds.items()):
        cell_path = ROOT_TO_CELL_PATH.get(root_name)
        if cell_path is None:
            continue
        means = [c["mean_ns"] for c in cells
                 if c.get("path") == cell_path and c.get("mean_ns", 0) > 0]
        if not means:
            print(f"validate: no {cell_path} cells in {serve_path}; "
                  f"{root_name} skipped")
            continue
        cell_mean_ns = sum(means) / len(means)
        trace_mean_ns = 1e3 * stats["root_us"] / stats["queries"]
        ratio = trace_mean_ns / cell_mean_ns
        ok = RATIO_LOW <= ratio <= RATIO_HIGH
        print(f"validate: {root_name} mean {trace_mean_ns:.0f}ns/query over "
              f"{stats['count']} trees ({stats['queries']} queries) vs "
              f"{cell_path} cells {cell_mean_ns:.0f}ns (ratio {ratio:.2f}) "
              f"{'OK' if ok else 'OUT OF RANGE'}")
        if not ok:
            violations += 1
    return violations


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    serve_json = None
    min_queries = 1
    rest = argv[2:]
    i = 0
    while i < len(rest):
        if rest[i] == "--serve-json" and i + 1 < len(rest):
            serve_json = rest[i + 1]
            i += 2
        elif rest[i].startswith("--serve-json="):
            serve_json = rest[i].split("=", 1)[1]
            i += 1
        elif rest[i] == "--min-queries" and i + 1 < len(rest):
            min_queries = int(rest[i + 1])
            i += 2
        elif rest[i].startswith("--min-queries="):
            min_queries = int(rest[i].split("=", 1)[1])
            i += 1
        else:
            print(f"unknown option {rest[i]}", file=sys.stderr)
            return 2

    queries = load_linked_events(argv[1])
    if not queries:
        print("no span-linked ('args.qid') events in trace")
        return 1

    # kind = root span name; per kind: tree count, summed root duration,
    # and summed per-name critical-path charges.
    kinds = defaultdict(lambda: {"count": 0, "queries": 0, "root_us": 0.0,
                                 "charged": defaultdict(float)})
    incomplete = 0
    for _qid, spans in sorted(queries.items()):
        tree = build_tree(spans)
        if tree is None:
            incomplete += 1
            continue
        root, children = tree
        k = kinds[root["name"]]
        k["count"] += 1
        k["queries"] += root["queries"]
        k["root_us"] += root["dur"]
        for name, us in critical_path(root, children).items():
            k["charged"][name] += us

    complete = sum(k["count"] for k in kinds.values())
    print(f"{len(queries)} queries in trace, {complete} complete trees, "
          f"{incomplete} incomplete (ring wrap)")
    if complete < min_queries:
        print(f"FAIL: fewer than --min-queries={min_queries} complete trees")
        return 1

    for root_name, k in sorted(kinds.items()):
        mean_root = k["root_us"] / k["count"]
        print(f"\n[{root_name}] {k['count']} trees, "
              f"mean {fmt_us(mean_root)}")
        print(f"  {'critical-path component':<28}{'mean':>12}{'share':>8}")
        print("  " + "-" * 48)
        for name, us in sorted(k["charged"].items(), key=lambda kv: -kv[1]):
            mean = us / k["count"]
            share = us / k["root_us"] if k["root_us"] > 0 else 0.0
            print(f"  {name:<28}{fmt_us(mean):>12}{100 * share:>7.1f}%")

    if serve_json is not None:
        if validate_against_serve(kinds, serve_json) > 0:
            return 1
    return 0


if __name__ == "__main__":
    import contextlib
    import signal
    with contextlib.suppress(AttributeError, ValueError):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv))
