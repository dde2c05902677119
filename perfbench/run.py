#!/usr/bin/env python3
"""Serving benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload router-hit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

A run builds the repository's `flb` CLI and the benchmark program
(perfbench/perf.ml) from source with dune, then runs it for one
workload and seed. The program starts fresh `flb serve` / `flb route`
processes, loads them for the given seconds, checks every answer, stops
them, and prints one JSON result as its last stdout line:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md
describes the workloads and metrics.

--self-check runs every workload at a tiny size, traced and untraced,
and once more with a deliberately corrupted reference. It asserts that
every metric named in BENCHMARK.json is emitted, finite and has the
declared unit, that the corrupted run counts failures, and that the
per-layer split adds up to the client round trip.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["router-hit", "direct-miss", "stream", "execute"]
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
PERF_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
FLB = os.path.join(ROOT, "_build", "default", "bin", "flb_cli.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ["dune-project", "bin/flb_cli.ml", "lib", "perfbench/dune"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s: run from a checkout of the repository" % needed, 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perf.exe", "./bin/flb_cli.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed", 3)


def run_perf(workload, seed, seconds, trace, extra=()):
    """Run perf.exe in its own process group; returns (result, lines)."""
    cmd = [PERF_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--flb", FLB, "--out", OUT_DIR] + list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds perf.exe and every daemon it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result" % workload)
    return result, lines


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_check():
    bench = spec()
    sets = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []

    def check_metrics(label, result, trace):
        got = result["metrics"]
        want = sets[trace]
        names = [m["name"] for m in want]
        if sorted(got) != sorted(names):
            problems.append("%s: metrics %s, expected %s" % (label, sorted(got), sorted(names)))
            return
        for m in want:
            v = got[m["name"]]
            if v.get("unit") != m["unit"]:
                problems.append("%s: %s unit %r, expected %r" % (label, m["name"], v.get("unit"), m["unit"]))
            if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
                problems.append("%s: %s value %r is not finite" % (label, m["name"], v.get("value")))

    tiny = ["--tiny", "--setups", "1"]
    for w in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace %d" % (w, trace)
            result, _ = run_perf(w, 1, 1, trace, tiny)
            check_metrics(label, result, trace)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%d failed=%d" % (
                    label, result["correct"], result["attempted"], result["failed"]))
            if trace == 1 and w in ("router-hit", "direct-miss"):
                m = {k: v["value"] for k, v in result["metrics"].items()}
                parts = ((m["wire.encode_us"] + m["wire.decode_us"]) / 1e3
                         + m["pool.queue_wait_ms"] + m["cache.stage_ms"]
                         + m["server.exec_ms"] + m["router.hop_ms"]
                         + m["client.unattributed_ms"])
                if abs(parts - m["client.rtt_ms"]) > 1e-6 * max(1.0, m["client.rtt_ms"]):
                    problems.append("%s: layers sum to %.6f ms, round trip is %.6f ms" % (
                        label, parts, m["client.rtt_ms"]))
        result, _ = run_perf(w, 1, 1, 0, tiny + ["--corrupt-reference"])
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: a corrupted reference was not counted as a failure "
                            "(correct=%s failed=%d)" % (w, result["correct"], result["failed"]))
        print("self-check %s: done" % w, file=sys.stderr)
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print(json.dumps({"self_check": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_check:
        self_check()
    if args.workload is None:
        fail("--workload is required", 2)
    _, lines = run_perf(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
