#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload dco_ldpc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # tests of the output checks

Run from the root of a checkout. The program is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) from perfbench/CMakeLists.txt, which
compiles the library in src/ with the top-level build's flags. Build output
goes to stderr; the program's last stdout line is the JSON result. Traces of
--trace 1 runs are written to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dco_ldpc", "train_ldpc", "serve_mix")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources src/ not found beside perfbench/ "
            "(run from the root of a full checkout)")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            return False
    rc = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                         "--target", target],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int,
                    help="kernel pool size (default 1; 0 = cores, at most 4)")
    ap.add_argument("--test", action="store_true",
                    help="build and run the tests of the output checks")
    args = ap.parse_args()
    if not args.test and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    target = "perfbench_tests" if args.test else "perfbench"
    if not build(build_dir, target):
        log("build failed")
        return 2
    exe = os.path.join(build_dir, target)
    if args.test:
        return subprocess.run([exe]).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(HERE, "out")]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    # Set-up time is measured from here, the moment the process is spawned.
    cmd += ["--spawn-ns", str(time.time_ns())]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
