#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the checkout:

  python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as perfbench/run.py does), then checks that inputs are
a pure function of the seed, that a short run prints every metric named in
BENCHMARK.json with its declared unit and no failed operation, that a traced
run writes a Chrome trace tools/trace_summary.py can read, and that the
benchmark refuses to run without the library sources.
"""
import http.server
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT = REPO / ".bench_out" / "tests"


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


RUNNER = load_runner()
BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = RUNNER.build(REPO / ".bench_build" / "perfbench")
    return BINARY


def digest(workload, seed):
    out = subprocess.run([str(binary()), "digest", "--workload", workload,
                          "--seed", str(seed)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def run_bench(workload, trace, seconds=2, seed=7):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    return proc


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            self.assertEqual(digest(w, 5), digest(w, 5), w)

    def test_different_seed_different_inputs(self):
        for w in WORKLOADS:
            a, b = digest(w, 5), digest(w, 6)
            for key in ("main_graph", "churn_a", "churn_b", "requests"):
                self.assertNotEqual(a[key], b[key], f"{w} {key}")


class Output(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        host = json.loads(lines[-2])["host"]
        for key in ("nproc", "effective_cores", "compiler", "build_type",
                    "eardec_enable_tracing", "git_sha", "src_digest", "loadavg_1m"):
            self.assertIn(key, host)
        return result

    def test_end_to_end_metrics_named_with_units(self):
        for w in WORKLOADS:
            result = self.check_result(run_bench(w, 0), SPEC["end_to_end"])
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_traced_run_writes_per_layer_metrics_and_trace(self):
        w = WORKLOADS[0]
        self.check_result(run_bench(w, 1), SPEC["per_layer"])
        trace = REPO / ".bench_out" / f"trace-{w}.json"
        doc = json.loads(trace.read_text())
        self.assertTrue(any(e.get("ph") == "X" for e in doc["traceEvents"]))
        summary = REPO / "tools" / "trace_summary.py"
        if summary.is_file():
            subprocess.run([sys.executable, str(summary), str(trace)], check=True,
                           capture_output=True)


class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    close_after_reply = False  # close without announcing it

    def do_GET(self):
        body = b"ok\n"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = self.close_after_reply

    def log_message(self, *args):
        pass


class SilentClose(Handler):
    close_after_reply = True


class HttpClientReuse(unittest.TestCase):
    def probe(self, handler, n=20):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            out = subprocess.run([str(binary()), "probe", "--port", str(server.server_port),
                                  "--requests", str(n)],
                                 capture_output=True, text=True, check=True).stdout
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
        return json.loads(out)

    def test_keeps_alive_when_server_does(self):
        self.assertEqual(self.probe(Handler), {"ok": 20, "connects": 1})

    def test_reconnects_when_server_closes(self):
        self.assertEqual(self.probe(SilentClose), {"ok": 20, "connects": 20})


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(REPO / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(REPO / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(REPO)
    unittest.main()
