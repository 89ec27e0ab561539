#!/usr/bin/env python3
"""Build and run the ConGrid end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload galaxy-farm --seed 1 --seconds 10 --trace 0

Builds the library (../src) and the harness from source into
.bench_build/perfbench with CMake (Release), then runs one workload. The
harness prints human-readable figures and, as the last line of its standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Build output goes to standard error. The exit status is the harness's: 0
only when every result matched the oracle.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"perfbench: no ConGrid sources under {ROOT}/src", file=sys.stderr)
        return 2
    steps = [["cmake", "--build", BUILD, "--target", "congrid_e2e",
              "-j", str(min(4, os.cpu_count() or 1))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Keep standard output for the result line alone.
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print(f"perfbench: {' '.join(cmd)} failed ({rc})", file=sys.stderr)
            return rc
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    rc = build()
    if rc != 0:
        return rc
    binary = os.path.join(BUILD, "congrid_e2e")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
