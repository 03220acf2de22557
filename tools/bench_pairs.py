#!/usr/bin/env python3
"""Time one perfbench workload on two checkouts in alternating pairs.

Usage (from anywhere):

    python3 tools/bench_pairs.py BASE CANDIDATE --workload cosim
                                 [--seed 42] [--pairs 10] [--seconds 20]
                                 [--trace 0] [--out DIR]

BASE and CANDIDATE are the roots of two checkouts (say, a `git archive`
of the parent commit and the working tree).  Each run is
`python3 perfbench/run.py --workload W --seed S --seconds N --trace T`,
started in its checkout's root, so each side is built from its own
source into its own `.bench_build/`.  Pair i runs BASE first when i is
even and CANDIDATE first when i is odd, so slow drift of the host's
speed falls on both sides alike.  Every run's stdout is saved as
`DIR/base/runNN.json` or `DIR/candidate/runNN.json` (DIR defaults to
`.bench_build/pairs-W-sS` under CANDIDATE), and the script then runs
CANDIDATE's `perfbench/compare.exe` over the two sets, which takes
equal-sized sets as pairs in order and prints each metric's verdict.

Exit status: compare.exe's (1 on a regression, a digest or counter
mismatch, or a new failed op), or 1 when a run fails.  The script only
reads and runs what is under `perfbench/`; it writes nothing there.
"""

import argparse
import os
import subprocess
import sys


def build_compare(root):
    subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", ".bench_build",
         "--display", "quiet", "perfbench/compare.exe"],
        cwd=root, stdout=sys.stderr, check=True)
    return os.path.join(root, ".bench_build", "default", "perfbench",
                        "compare.exe")


def run_once(root, args, path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with open(path, "w") as out:
        done = subprocess.run(cmd, cwd=root, stdout=out, check=False)
    return done.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("candidate")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    sides = {"base": os.path.abspath(args.base),
             "candidate": os.path.abspath(args.candidate)}
    for root in sides.values():
        if not os.path.isfile(os.path.join(root, "perfbench", "run.py")):
            sys.stderr.write("bench_pairs: no perfbench/run.py in %s\n" % root)
            return 2
    out = os.path.abspath(args.out or os.path.join(
        sides["candidate"], ".bench_build",
        "pairs-%s-s%d" % (args.workload, args.seed)))
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)
    failed = False
    for i in range(args.pairs):
        order = ["base", "candidate"] if i % 2 == 0 else ["candidate", "base"]
        for side in order:
            path = os.path.join(out, side, "run%02d.json" % i)
            sys.stderr.write("bench_pairs: pair %d/%d, %s\n"
                             % (i + 1, args.pairs, side))
            if run_once(sides[side], args, path) != 0:
                sys.stderr.write("bench_pairs: %s run %d failed (%s)\n"
                                 % (side, i, path))
                failed = True
    runs = {side: [os.path.join(out, side, "run%02d.json" % i)
                   for i in range(args.pairs)] for side in sides}
    compare = build_compare(sides["candidate"])
    done = subprocess.run([compare] + runs["base"] + ["--"]
                          + runs["candidate"], check=False)
    return 1 if failed else done.returncode


if __name__ == "__main__":
    sys.exit(main())
