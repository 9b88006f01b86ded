#!/usr/bin/env python3
"""Scenario tick benchmark: builds the engine and the runner, runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload rts_waves --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --capacity rts_waves --seed 1   # 16.6 ms reference
  python3 perfbench/run.py --selftest                      # checker self-test

The engine library is compiled from src/ together with the runner into
$CARGO_TARGET_DIR (default .bench_build), with CMake and this directory's
CMakeLists.txt; the first run builds, later runs reuse the build. Scratch
files and the traced run's layer tables and Chrome traces go to
<build dir>/work. The runner's last stdout line is the JSON result; build
output goes to stderr.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the runner and the self-test."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log("engine sources not found under src/; nothing to benchmark")
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = [cmake, "-S", HERE, "-B", build_dir, *gen,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = [cmake, "--build", build_dir, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capacity", choices=("rts_waves", "traffic_sharded"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.capacity or args.selftest):
        p.error("one of --workload, --capacity or --selftest is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        log("build failed")
        return 2
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    if args.selftest:
        cmd = [os.path.join(build_dir, "perfbench_checks_test")]
        return subprocess.run(cmd, cwd=workdir).returncode
    cmd = [os.path.join(build_dir, "perfbench"), "--seed", str(args.seed),
           "--workdir", workdir]
    if args.capacity:
        cmd += ["--capacity", args.capacity]
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    rc = subprocess.run(cmd).returncode
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main())
