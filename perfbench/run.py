#!/usr/bin/env python3
"""Build and run the Camelot benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload clique6 --seed 1 --seconds 20 --trace 0

Builds the library, shardd and the driver from source into the build
directory ($CARGO_TARGET_DIR when set, else .bench_build; relative paths
resolve against the repository root), runs one workload, and forwards
the driver's output. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Exits nonzero, without that
line, when the build fails (for example when the library sources are not
next to perfbench/) or the run fails or finds a wrong verified answer.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clique6", "ov_byzantine", "service_mix")
RUN_TIMEOUT_S = 170
# A cold build takes about a minute on 4 cores; the limit only stops a
# wedged build.
BUILD_TIMEOUT_S = 600


def build(build_dir):
    """Configures and builds; returns the cmake build directory."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs,
         "--target", "camelot_perfbench", "shardd"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return cmake_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmake_dir = build(build_dir)
    if cmake_dir is None:
        return 1
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)

    cmd = [
        os.path.join(cmake_dir, "camelot_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--shardd", os.path.join(cmake_dir, "camelot", "shardd"),
        "--out-dir", results,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    out = proc.stdout
    if proc.returncode != 0:
        # Keep the driver's diagnostics but never a result line.
        sys.stdout.write("\n".join(l for l in out.splitlines()
                                   if not l.startswith("{\"correct\"")) + "\n")
        sys.stderr.write("perfbench: driver exited with %d\n" % proc.returncode)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
