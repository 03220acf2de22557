#!/usr/bin/env python3
"""Build the benchmark suite from source, then run it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload dse --seed 42 --seconds 10 --trace 0

The build goes to .bench_build; build messages go to stderr, so stdout
carries only the suite's reports.  The last line of stdout is the
summary JSON object.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/suite.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root "
                         "(no dune-project or lib/ here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", TARGET],
        stdout=sys.stderr, check=False)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
