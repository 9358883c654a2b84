#!/usr/bin/env python3
"""Validates the bench-smoke JSON snapshots (CI gate).

Usage: check_bench_smoke.py <table2_mcb.json> <mcb_gf2.json>
                            [<sssp_kernels.json>] [<oracle_query.json>]
                            [<oracle_serve.json>] [<scaling.json>]
                            [--tolerance X]

Two layers of checking:

1. Schema: both files must carry the provenance header
   (schema_version/git_sha) and every record must have the full key set
   with positive timings — a bench refactor that silently drops a field
   fails here, not in a downstream plotting script.

2. Performance tripwire: on the chain-rich smoke datasets the
   heterogeneous MCB must not fall behind sequential by more than the
   jitter tolerance. Only enforced when the runner exposes >= 4 hardware
   threads — below that the heterogeneous driver legitimately degrades to
   the sequential schedule (see hetero::host_has_parallelism), so the
   comparison measures nothing; we warn instead.
"""

import json
import sys

TABLE2_MODE_KEYS = ("sequential", "multicore", "device", "heterogeneous")
TABLE2_TIMING_KEYS = ("with_ears_s", "without_ears_s")
GF2_CELL_KEYS = (
    "witnesses", "density", "impl", "seconds",
    "dots", "sparse_dots", "words_xored", "range_skips", "promotions",
)
CHAIN_RICH = ("as-22july06", "c-50")


def fail(msg):
    print(f"check_bench_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    require(doc.get("schema_version") == 4,
            f"{path}: schema_version missing or not 4")
    require(isinstance(doc.get("git_sha"), str) and doc["git_sha"],
            f"{path}: git_sha missing")
    require("smoke" in doc, f"{path}: smoke flag missing")
    return doc


def check_table2(path):
    doc = load(path)
    require(isinstance(doc.get("hardware_concurrency"), int),
            f"{path}: hardware_concurrency missing")
    datasets = doc.get("datasets")
    require(isinstance(datasets, dict) and datasets,
            f"{path}: datasets missing or empty")
    for name, d in datasets.items():
        for key in ("n", "m"):
            require(isinstance(d.get(key), int) and d[key] > 0,
                    f"{path}: {name}.{key} missing or non-positive")
        modes = d.get("modes")
        require(isinstance(modes, dict), f"{path}: {name}.modes missing")
        for mode in TABLE2_MODE_KEYS:
            require(mode in modes, f"{path}: {name}.modes.{mode} missing")
            for timing in TABLE2_TIMING_KEYS:
                v = modes[mode].get(timing)
                require(isinstance(v, (int, float)) and v > 0,
                        f"{path}: {name}.{mode}.{timing} missing or <= 0")
    return doc


def check_gf2(path):
    doc = load(path)
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells,
            f"{path}: cells missing or empty")
    for i, cell in enumerate(cells):
        for key in GF2_CELL_KEYS:
            require(key in cell, f"{path}: cells[{i}].{key} missing")
        require(cell["seconds"] > 0, f"{path}: cells[{i}].seconds <= 0")
        require(cell["impl"] in ("naive", "matrix_cpu"),
                f"{path}: cells[{i}].impl unknown: {cell['impl']}")


SSSP_CELL_KEYS = ("graph", "n", "m", "kernel", "k", "seconds",
                  "sources_per_s", "rounds")
SSSP_KERNELS = ("dijkstra", "delta", "multi_source")


def check_sssp_kernels(path):
    """Shape check for the phase-II kernel ablation: every cell carries the
    full axis set, the kernel axis covers all three kernels, and the
    multi-source batch-width axis has at least two widths (the selector's
    k >= 4 claim is meaningless from a single-point sweep)."""
    doc = load(path)
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells,
            f"{path}: cells missing or empty")
    kernels_seen = set()
    widths = set()
    for i, cell in enumerate(cells):
        for key in SSSP_CELL_KEYS:
            require(key in cell, f"{path}: cells[{i}].{key} missing")
        require(cell["kernel"] in SSSP_KERNELS,
                f"{path}: cells[{i}].kernel unknown: {cell['kernel']}")
        require(isinstance(cell["seconds"], (int, float))
                and cell["seconds"] > 0,
                f"{path}: cells[{i}].seconds missing or <= 0")
        require(isinstance(cell["k"], int) and cell["k"] >= 1,
                f"{path}: cells[{i}].k missing or < 1")
        require(cell["n"] > 0 and cell["m"] > 0,
                f"{path}: cells[{i}] n/m non-positive")
        kernels_seen.add(cell["kernel"])
        if cell["kernel"] == "multi_source":
            widths.add(cell["k"])
    for kernel in SSSP_KERNELS:
        require(kernel in kernels_seen, f"{path}: no {kernel} cells")
    require(len(widths) >= 2,
            f"{path}: multi_source k axis needs >= 2 widths, got {widths}")


ORACLE_CELL_KEYS = ("method", "mix", "queries", "seconds", "qps", "mean_ns",
                    "p50_ns", "p90_ns", "p99_ns")
ORACLE_METHODS = ("compact", "full_table", "dijkstra")
ORACLE_MIXES = ("same_block", "cross_block", "uniform")


def check_quantiles(cell, path, i):
    require(cell["p50_ns"] <= cell["p90_ns"] <= cell["p99_ns"],
            f"{path}: cells[{i}] quantiles not monotone: "
            f"p50={cell['p50_ns']} p90={cell['p90_ns']} "
            f"p99={cell['p99_ns']}")


def check_oracle_query(path):
    """Shape check for the query-latency snapshot: the full method x mix
    grid present (stratified same-block / cross-block / uniform pairs),
    positive throughput, and internally consistent quantiles
    (p50 <= p90 <= p99 — a broken quantile estimator fails here)."""
    doc = load(path)
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells,
            f"{path}: cells missing or empty")
    grid_seen = set()
    for i, cell in enumerate(cells):
        for key in ORACLE_CELL_KEYS:
            require(key in cell, f"{path}: cells[{i}].{key} missing")
        require(cell["method"] in ORACLE_METHODS,
                f"{path}: cells[{i}].method unknown: {cell['method']}")
        require(cell["mix"] in ORACLE_MIXES,
                f"{path}: cells[{i}].mix unknown: {cell['mix']}")
        require(cell["seconds"] > 0, f"{path}: cells[{i}].seconds <= 0")
        require(cell["qps"] > 0, f"{path}: cells[{i}].qps <= 0")
        require(cell["queries"] > 0, f"{path}: cells[{i}].queries <= 0")
        check_quantiles(cell, path, i)
        require(cell["mean_ns"] > 0, f"{path}: cells[{i}].mean_ns <= 0")
        grid_seen.add((cell["method"], cell["mix"]))
    for method in ORACLE_METHODS:
        for mix in ORACLE_MIXES:
            require((method, mix) in grid_seen,
                    f"{path}: no ({method}, {mix}) cell")


SERVE_CELL_KEYS = ("mix", "path", "queries", "batch", "target_qps",
                   "seconds", "qps", "mean_ns", "p50_ns", "p90_ns",
                   "p99_ns", "open_mean_ns", "open_p50_ns", "open_p90_ns",
                   "open_p99_ns", "sampled", "mismatches", "attr")
SERVE_PATHS = ("scalar", "batch")
ATTR_COMPONENTS = ("queue_wait", "kernel", "write")
ATTR_STAT_KEYS = ("mean_ns", "p50_ns", "p90_ns", "p99_ns")
ATTR_SUM_TOLERANCE = 0.10


def check_attr_block(cell, path, i):
    """The latency-attribution contract: every component histogram present
    with internally monotone quantiles, and the component means chaining
    gaplessly — their sum must reproduce the open-loop mean within 10% on
    every cell (arrival -> entry -> kernel -> write is a partition of the
    open-loop interval, not a sampling of it)."""
    attr = cell["attr"]
    require(isinstance(attr, dict), f"{path}: cells[{i}].attr not a dict")
    component_sum = 0.0
    for comp in ATTR_COMPONENTS:
        stats = attr.get(comp)
        require(isinstance(stats, dict),
                f"{path}: cells[{i}].attr.{comp} missing")
        for key in ATTR_STAT_KEYS:
            v = stats.get(key)
            require(isinstance(v, (int, float)) and v >= 0,
                    f"{path}: cells[{i}].attr.{comp}.{key} missing or "
                    "negative")
        require(stats["p50_ns"] <= stats["p90_ns"] <= stats["p99_ns"],
                f"{path}: cells[{i}].attr.{comp} quantiles not monotone: "
                f"p50={stats['p50_ns']} p90={stats['p90_ns']} "
                f"p99={stats['p99_ns']}")
        component_sum += stats["mean_ns"]
    open_mean = cell["open_mean_ns"]
    require(open_mean > 0, f"{path}: cells[{i}].open_mean_ns <= 0")
    require(abs(component_sum - open_mean) <= ATTR_SUM_TOLERANCE * open_mean,
            f"{path}: cells[{i}] attribution components sum to "
            f"{component_sum:.0f}ns but open-loop mean is {open_mean:.0f}ns "
            f"(> {100 * ATTR_SUM_TOLERANCE:.0f}% apart) — the chain has a "
            "gap or an overlap")


def check_oracle_serve(path):
    """Shape + correctness gate for the sustained-load serving snapshot:
    the full mix x path grid, monotone service and open-loop quantiles,
    a nonzero verification sample in every cell, and zero mismatches vs
    Dijkstra anywhere (the load harness asserts this too — here it is
    re-checked from the snapshot so a stale or hand-edited file fails),
    then the closed-loop reader-scaling cells."""
    doc = load(path)
    cells = doc.get("cells")
    require(isinstance(cells, list) and cells,
            f"{path}: cells missing or empty")
    grid_seen = set()
    for i, cell in enumerate(cells):
        for key in SERVE_CELL_KEYS:
            require(key in cell, f"{path}: cells[{i}].{key} missing")
        require(cell["mix"] in ORACLE_MIXES,
                f"{path}: cells[{i}].mix unknown: {cell['mix']}")
        require(cell["path"] in SERVE_PATHS,
                f"{path}: cells[{i}].path unknown: {cell['path']}")
        require(cell["seconds"] > 0, f"{path}: cells[{i}].seconds <= 0")
        require(cell["qps"] > 0, f"{path}: cells[{i}].qps <= 0")
        require(cell["queries"] > 0, f"{path}: cells[{i}].queries <= 0")
        require(cell["target_qps"] > 0,
                f"{path}: cells[{i}].target_qps <= 0")
        check_quantiles(cell, path, i)
        require(cell["open_p50_ns"] <= cell["open_p90_ns"]
                <= cell["open_p99_ns"],
                f"{path}: cells[{i}] open-loop quantiles not monotone")
        require(cell["sampled"] > 0,
                f"{path}: cells[{i}].sampled == 0 (no verification ran)")
        require(cell["mismatches"] == 0,
                f"{path}: cells[{i}] served {cell['mismatches']} answers "
                "that differ from Dijkstra")
        check_attr_block(cell, path, i)
        grid_seen.add((cell["mix"], cell["path"]))
    for mix in ORACLE_MIXES:
        for p in SERVE_PATHS:
            require((mix, p) in grid_seen, f"{path}: no ({mix}, {p}) cell")
    check_reader_scaling(doc, path)


READER_SCALING_KEYS = ("name", "access", "readers", "queries", "seconds",
                       "qps", "sampled", "mismatches")
READER_ACCESS = ("server_query", "snapshot_query", "pinned_query")
READER_COUNTS = (1, 3)


def check_reader_scaling(doc, path):
    """Shape gate for the closed-loop reader-scaling cells: the full
    access x readers grid, each cell named once (the name is its identity
    under compare_bench.py), positive throughput, and a nonzero, clean
    verification sample."""
    cells = doc.get("reader_scaling")
    require(isinstance(cells, list) and cells,
            f"{path}: reader_scaling missing or empty")
    grid_seen = set()
    names_seen = set()
    for i, cell in enumerate(cells):
        where = f"{path}: reader_scaling[{i}]"
        for key in READER_SCALING_KEYS:
            require(key in cell, f"{where}.{key} missing")
        require(cell["access"] in READER_ACCESS,
                f"{where}.access unknown: {cell['access']}")
        require(cell["readers"] in READER_COUNTS,
                f"{where}.readers unexpected: {cell['readers']}")
        require(cell["name"] not in names_seen,
                f"{where}.name {cell['name']} repeats")
        names_seen.add(cell["name"])
        require(cell["seconds"] > 0, f"{where}.seconds <= 0")
        require(cell["queries"] > 0, f"{where}.queries <= 0")
        require(cell["qps"] > 0, f"{where}.qps <= 0")
        require(cell["sampled"] > 0,
                f"{where}.sampled == 0 (no verification ran)")
        require(cell["mismatches"] == 0,
                f"{where} served {cell['mismatches']} answers that differ "
                "from Dijkstra")
        grid_seen.add((cell["access"], cell["readers"]))
    for access in READER_ACCESS:
        for readers in READER_COUNTS:
            require((access, readers) in grid_seen,
                    f"{path}: no reader_scaling cell for {access} with "
                    f"{readers} reader(s)")


SCALING_PHASE_KEYS = ("generate", "build_csr", "write_edg2", "load_mmap",
                      "phase0_bcc", "phase1_chains", "phase1_ears")
SCALING_RSS_KEYS = ("before_load_mb", "load_delta_mb", "peak_mb",
                    "model_mb", "model_csr_mb")
SCALING_RSS_FACTOR = 1.25


def check_scaling(path):
    """Shape + envelope gate for the ingestion-scaling snapshot: every size
    carries the full seven-phase pipeline with positive throughput, sizes
    are strictly ascending (the VmHWM methodology depends on it), peak RSS
    sits inside the linear phase01 memory-model bound x 1.25, and the
    load-phase RSS delta stays below the CSR payload size — the zero-copy
    claim, re-checked from the snapshot."""
    doc = load(path)
    sizes = doc.get("sizes")
    require(isinstance(sizes, list) and sizes,
            f"{path}: sizes missing or empty")
    prev_n = 0
    for i, s in enumerate(sizes):
        for key in ("n", "m"):
            require(isinstance(s.get(key), int) and s[key] > 0,
                    f"{path}: sizes[{i}].{key} missing or non-positive")
        require(s["n"] > prev_n,
                f"{path}: sizes[{i}].n={s['n']} not ascending "
                "(peak-RSS methodology requires ascending sizes)")
        prev_n = s["n"]
        phases = s.get("phases")
        require(isinstance(phases, dict), f"{path}: sizes[{i}].phases missing")
        for key in SCALING_PHASE_KEYS:
            p = phases.get(key)
            require(isinstance(p, dict), f"{path}: sizes[{i}].phases.{key} "
                    "missing")
            require(isinstance(p.get("seconds"), (int, float))
                    and p["seconds"] > 0,
                    f"{path}: sizes[{i}].{key}.seconds missing or <= 0")
            require(isinstance(p.get("nodes_per_s"), (int, float))
                    and p["nodes_per_s"] > 0,
                    f"{path}: sizes[{i}].{key}.nodes_per_s missing or <= 0")
        rss = s.get("rss")
        require(isinstance(rss, dict), f"{path}: sizes[{i}].rss missing")
        for key in SCALING_RSS_KEYS:
            require(isinstance(rss.get(key), (int, float)),
                    f"{path}: sizes[{i}].rss.{key} missing")
        if rss["peak_mb"] < 0:
            print(f"check_bench_smoke: WARN: {path}: sizes[{i}] has no "
                  "peak-RSS reading (non-Linux runner?); envelope skipped")
            continue
        bound = rss["model_mb"] * SCALING_RSS_FACTOR
        require(rss["peak_mb"] <= bound,
                f"{path}: sizes[{i}] peak RSS {rss['peak_mb']:.1f} MB "
                f"exceeds model bound {rss['model_mb']:.1f} MB x "
                f"{SCALING_RSS_FACTOR} = {bound:.1f} MB")
        require(rss["load_delta_mb"] <= rss["model_csr_mb"],
                f"{path}: sizes[{i}] load RSS delta "
                f"{rss['load_delta_mb']:.1f} MB reaches the CSR payload "
                f"size {rss['model_csr_mb']:.1f} MB — mmap load is no "
                "longer zero-copy")


def check_hetero_not_slower(doc, path, tolerance):
    hw = doc["hardware_concurrency"]
    if hw < 4:
        print(f"check_bench_smoke: WARN: only {hw} hardware thread(s); "
              "the heterogeneous driver degrades to sequential there, so "
              "the hetero-vs-sequential gate is skipped")
        return
    for name in CHAIN_RICH:
        if name not in doc["datasets"]:
            continue
        modes = doc["datasets"][name]["modes"]
        seq = modes["sequential"]["with_ears_s"]
        het = modes["heterogeneous"]["with_ears_s"]
        require(het <= seq * tolerance,
                f"{path}: heterogeneous MCB on {name} ({het:.6f}s) is more "
                f"than {tolerance:.2f}x slower than sequential ({seq:.6f}s)")
        print(f"check_bench_smoke: {name}: hetero {het:.6f}s vs "
              f"sequential {seq:.6f}s (ratio {het / seq:.2f})")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    tolerance = 1.2
    for a in argv[1:]:
        if a.startswith("--tolerance="):
            tolerance = float(a.split("=", 1)[1])
    if len(args) not in (2, 3, 4, 5, 6):
        print(__doc__, file=sys.stderr)
        return 2
    table2 = check_table2(args[0])
    check_gf2(args[1])
    if len(args) >= 3:
        check_sssp_kernels(args[2])
    if len(args) >= 4:
        check_oracle_query(args[3])
    if len(args) >= 5:
        check_oracle_serve(args[4])
    if len(args) >= 6:
        check_scaling(args[5])
    check_hetero_not_slower(table2, args[0], tolerance)
    print("check_bench_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
