#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload lookup-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune (build output goes to stderr) and then runs it with the given
arguments; the benchmark's last stdout line is its JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        sys.stderr.write("perfbench: run from the root of a LegoDB source "
                         "checkout (no dune-project and lib/ here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
