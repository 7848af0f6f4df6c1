#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload explore_table4|service_warm|dp_hard \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --corpus --seed N   # list the dp_hard corpus

Run from the repository root. The build goes to .bench_build/ (CMake,
Release; a no-op once built); scratch files go to .bench_build/work/. The
program's last line of stdout is the result object; build output goes to
stderr. Exits non-zero, printing the workload and seed, when the build
fails or the program dies.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                         BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main(argv):
    build()
    args = argv + ["--work-dir", os.path.join(BUILD, "work")]
    done = subprocess.run([PROGRAM] + args, cwd=ROOT)
    if done.returncode != 0:
        how = ("signal %d" % -done.returncode if done.returncode < 0
               else "exit code %d" % done.returncode)
        sys.exit("perfbench: program failed (%s): %s" % (how, " ".join(argv)))


if __name__ == "__main__":
    main(sys.argv[1:])
