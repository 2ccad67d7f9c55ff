#!/usr/bin/env python3
"""Builds liboptilog and the benchmark binary from source, then runs one workload.

    python3 perfbench/run.py --workload tree_wan --seed 1 --seconds 40 --trace 0

Run it from the repository root. Build output goes to .bench_build/ and to
stderr; the binary's stdout is forwarded, and its last line is the JSON
result. Exits non-zero without a result when the sources are missing or the
build or the run fails. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "optilog")
BIN_BUILD = os.path.join(BUILD, "perfbench")
BIN = os.path.join(BIN_BUILD, "perfbench_bin")
WORKLOADS = ("tree_wan", "shard_txn", "aware_attack")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
JOBS = "4"
RUN_TIMEOUT_S = 170


def step(cmd):
    """Runs one build command with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as e:
        print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no liboptilog sources next to perfbench/", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")) and not step(
        ["cmake", "-S", ROOT, "-B", LIB_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
    ):
        return False
    if not step(["cmake", "--build", LIB_BUILD, "--target", "optilog", "-j", JOBS]):
        return False
    if not os.path.isfile(os.path.join(BIN_BUILD, "CMakeCache.txt")) and not step(
        ["cmake", "-S", HERE, "-B", BIN_BUILD, f"-DOPTILOG_BUILD_DIR={LIB_BUILD}"]
    ):
        return False
    return step(["cmake", "--build", BIN_BUILD, "-j", JOBS])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not build():
        return 1
    cmd = [BIN, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: benchmark binary exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark binary exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
