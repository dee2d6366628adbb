#!/usr/bin/env python3
"""One command for the KBC benchmark.

    python3 perfbench/run.py --workload insert_stream|dev_loop|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and kbcbench from
source into .bench_build/ (the first run builds, later runs reuse it), runs
one workload, checks its outputs, and prints the result as the last line of
standard output: one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the per-layer ones, derived from spans. Diagnostics (build log,
input hash, tail percentile and sample count, failed checks) go to standard
error. Exits nonzero when the build or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("insert_stream", "dev_loop", "serve_mixed")
BUILD_DIR = ".bench_build"
# kbcbench must end within this many seconds, so a built run of the whole
# command stays under three minutes.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(BUILD_DIR, "perfbench")
    binary = os.path.join(build_dir, "kbcbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    raw_path = os.path.join(BUILD_DIR, "raw-" + tag + ".json")
    socket_path = os.path.join(BUILD_DIR, "sock-" + tag)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", raw_path, "--socket", socket_path]
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("kbcbench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    if code != 0:
        log("kbcbench exited with %d" % code)
        return 1
    with open(raw_path) as f:
        raw = json.load(f)
    os.unlink(raw_path)

    result = stats.summarize(raw, args.trace)
    log("workload %s seed %d: input hash %s, %.1f s" %
        (args.workload, args.seed, raw["input_hash"], time.monotonic() - started))
    for name, samples in (("write", raw["samples"].get("update_ms", [])),
                          ("query", raw["samples"].get("query_us", []))):
        t = stats.tail(samples)
        if t:
            log("%s tail: p%g of %d samples (%d beyond) = %.6g" %
                (name, t[0], len(samples), t[2], t[1]))
    for check in raw["checks"]:
        if not check["ok"]:
            log("check failed: %s: %s" % (check["name"], check["detail"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
