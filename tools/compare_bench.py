#!/usr/bin/env python3
"""Perf-regression sentinel: diffs two bench_results/*.json snapshots.

Usage: compare_bench.py <baseline.json> <candidate.json>
                        [--threshold 25%] [--min-seconds 0.002]
                        [--out delta.md]

Both files must be schema-v3 or v4 snapshots of the *same* bench binary
(the flattened metric keys must overlap). v4 changed only the mcb_gf2 cell
keys, so a v3 baseline diffs against a v4 candidate over the shared keys.
Every shared numeric metric is compared direction-aware:

  * time-like metrics ("seconds", "*_s", "*_ns", "mean_ns", quantiles)
    regress when the candidate is *higher* than baseline;
  * rate-like metrics ("qps", "*_per_s") regress when the candidate is
    *lower*.

A metric whose relative change exceeds the threshold in the bad direction
is a regression -> exit 1 (improvements and small wobbles exit 0). Tiny
timings are noise, not signal: time-like metrics where both sides sit
below --min-seconds (after ns->s normalisation) are reported but never
gated, and likewise rate-like metrics whose sibling "seconds" metric sits
below the floor on both sides. Identity fields (graph/kernel/method/impl/...) key the cells, so
reordering cells between runs does not produce false diffs. Exit codes:
0 ok, 1 regression, 2 usage/shape error.

The markdown delta table (stdout, or --out for PR comments) lists every
compared metric with baseline, candidate, and relative change, worst
offenders first.
"""

import json
import sys

PROVENANCE_KEYS = {"schema_version", "git_sha", "smoke",
                   "hardware_concurrency"}
IDENTITY_KEYS = ("graph", "kernel", "method", "impl", "name", "mode",
                 "dataset", "mix", "path", "k", "witnesses", "density",
                 "device_threshold")


def fail(msg):
    print(f"compare_bench: ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if doc.get("schema_version") not in (3, 4):
        fail(f"{path}: not a schema-v3/v4 bench snapshot "
             f"(schema_version={doc.get('schema_version')})")
    return doc


def cell_identity(cell):
    """Stable key for a list element: its identity fields, in order."""
    parts = [f"{k}={cell[k]}" for k in IDENTITY_KEYS if k in cell]
    return ",".join(parts)


def flatten(node, prefix, out):
    """Recursively flattens a snapshot into {metric_key: number}, skipping
    provenance. List-of-dict elements are keyed by identity fields rather
    than position, so cell reordering between runs diffs cleanly."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not prefix and key in PROVENANCE_KEYS:
                continue
            flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            if isinstance(item, dict):
                ident = cell_identity(item) or f"[{i}]"
                flatten(item, f"{prefix}[{ident}]", out)
            else:
                flatten(item, f"{prefix}[{i}]", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)


def metric_kind(key):
    """'time' (higher is worse), 'rate' (lower is worse), or None (not a
    performance metric -- identity counts, rounds, sizes -- never gated)."""
    leaf = key.rsplit(".", 1)[-1].rsplit("]", 1)[-1].lstrip(".")
    # Rate suffixes first: "nodes_per_s" also ends with "_s", and the time
    # branch would invert its direction.
    if leaf == "qps" or leaf.endswith("_per_s"):
        return "rate"
    if leaf == "seconds" or leaf.endswith("_s") or leaf.endswith("_ns"):
        return "time"
    return None


def to_seconds(key, value):
    return value / 1e9 if key.rsplit(".", 1)[-1].endswith("_ns") else value


def parse_threshold(text):
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError:
        fail(f"bad --threshold {text!r} (want e.g. '25%' or '0.25')")


def main(argv):
    paths = []
    threshold = 0.25
    min_seconds = 0.0
    out_path = None
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--threshold":
            i += 1
            threshold = parse_threshold(argv[i])
        elif arg.startswith("--threshold="):
            threshold = parse_threshold(arg.split("=", 1)[1])
        elif arg == "--min-seconds":
            i += 1
            min_seconds = float(argv[i])
        elif arg.startswith("--min-seconds="):
            min_seconds = float(arg.split("=", 1)[1])
        elif arg == "--out":
            i += 1
            out_path = argv[i]
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        elif arg.startswith("--"):
            fail(f"unknown option {arg}")
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    base_doc, cand_doc = load(paths[0]), load(paths[1])
    base, cand = {}, {}
    flatten(base_doc, "", base)
    flatten(cand_doc, "", cand)

    shared = [k for k in base if k in cand and metric_kind(k) is not None]
    if not shared:
        fail(f"no shared performance metrics between {paths[0]} and "
             f"{paths[1]} -- are these snapshots of the same bench?")

    rows = []       # (signed badness, key, base, cand, change, gated, kind)
    regressions = []
    for key in shared:
        kind = metric_kind(key)
        b, c = base[key], cand[key]
        if b <= 0:
            continue  # nothing to express a relative change against
        # Positive change = worse, in both directions.
        change = (c - b) / b if kind == "time" else (b - c) / b
        gated = True
        if kind == "time" and min_seconds > 0:
            if to_seconds(key, b) < min_seconds and \
               to_seconds(key, c) < min_seconds:
                gated = False
        if kind == "rate" and min_seconds > 0:
            # A rate computed over a sub-noise-floor duration is noise too:
            # when the cell carries a sibling "seconds" metric and both
            # sides sit below the floor, report but never gate.
            sibling = key.rsplit(".", 1)[0] + ".seconds"
            if sibling in base and sibling in cand and \
               base[sibling] < min_seconds and cand[sibling] < min_seconds:
                gated = False
        rows.append((change, key, b, c, gated, kind))
        if gated and change > threshold:
            regressions.append(key)

    rows.sort(key=lambda r: -r[0])
    lines = []
    verdict = "REGRESSION" if regressions else "ok"
    lines.append(f"### Bench delta: {paths[0]} -> {paths[1]} ({verdict})")
    lines.append("")
    lines.append(f"threshold {threshold * 100:.0f}%, "
                 f"{len(rows)} metrics compared, "
                 f"{len(regressions)} regression(s)")
    lines.append("")
    lines.append("| metric | baseline | candidate | change | |")
    lines.append("|---|---:|---:|---:|---|")
    for change, key, b, c, gated, kind in rows:
        arrow = "worse" if change > 0 else ("better" if change < 0 else "=")
        flag = ""
        if not gated:
            flag = "below noise floor"
        elif change > threshold:
            flag = "**REGRESSION**"
        lines.append(f"| `{key}` | {b:g} | {c:g} | "
                     f"{change * 100:+.1f}% {arrow} | {flag} |")
    report = "\n".join(lines) + "\n"

    if out_path:
        with open(out_path, "w") as f:
            f.write(report)
    print(report, end="")
    if regressions:
        print(f"compare_bench: FAIL: {len(regressions)} metric(s) regressed "
              f"beyond {threshold * 100:.0f}%:", file=sys.stderr)
        for key in regressions:
            print(f"  {key}", file=sys.stderr)
        return 1
    print("compare_bench: OK")
    return 0


if __name__ == "__main__":
    # Piping the report into head/less must not traceback on SIGPIPE.
    import contextlib
    import signal
    with contextlib.suppress(AttributeError, ValueError):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv))
