#!/usr/bin/env python3
"""Build and run the eardec end-to-end benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs the benchmark binary, and forwards its output.
The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the host fingerprint. Everything the run writes stays under the checkout:
.bench_build/ (build tree) and .bench_out/ (results, traces).

Exits non-zero without printing a result when the sources are missing, the
build fails, or the binary fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {REPO / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if pathlib.Path(top).resolve() != REPO:
            return "unknown"
        return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def src_digest():
    """sha256 over the library sources, so results from checkouts without git
    history can still be matched to the code they ran."""
    h = hashlib.sha256()
    for path in sorted((REPO / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(REPO)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = pathlib.Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(root / ".bench_out"),
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("benchmark printed no result line")
        return 5
    if set(result) != RESULT_KEYS:
        log(f"result has keys {sorted(result)}")
        return 5
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
