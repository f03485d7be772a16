#!/usr/bin/env python3
"""Builds the bdisk benchmark binary from this checkout and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_light --seed 1 --seconds 38 \
        --trace 0 --default-seed 20260704 --held-out-seed 4242

The binary (bdisk_perfbench) is built with CMake under
.bench_build/perfbench (a no-op when nothing changed); build output goes to
stderr so the last line of stdout stays the binary's JSON result. Sockets and trace files are written
under .bench_build as well. Exits non-zero without a result when the bdisk
sources are missing, the build fails, or the result does not match the
metric lists in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK = ".bench_build"  # Relative to ROOT: keeps AF_UNIX socket paths short.
BUILD_DIR = os.path.join(WORK, "perfbench")
WORKLOADS = ("sim_light", "sim_saturated", "serve_wire")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "3"],
                   cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "bdisk_perfbench")


def expected_metrics(traced):
    """The metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--default-seed", required=True, type=int)
    parser.add_argument("--held-out-seed", required=True, type=int)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no bdisk sources under %s/src; run from a full "
                    "checkout" % ROOT)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    socket_dir = os.path.join(WORK, "run")
    trace_dir = os.path.join(WORK, "traces")
    for d in (socket_dir, trace_dir):
        os.makedirs(os.path.join(ROOT, d), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--default-seed", str(args.default_seed),
           "--held-out-seed", str(args.held_out_seed),
           "--socket-dir", socket_dir, "--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("%s did not finish within %d s" % (args.workload,
                                                       RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        measured = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stdout.write(proc.stdout)
        return fail("bdisk_perfbench exited %d without a JSON result" %
                    proc.returncode)
    expected = expected_metrics(args.trace == 1)
    if measured != expected:
        print("\n".join(lines[:-1]))
        return fail("metrics %s do not match BENCHMARK.json %s" %
                    (sorted(measured.items()), sorted(expected.items())))
    print("\n".join(lines))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
