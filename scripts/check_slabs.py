#!/usr/bin/env python3
"""End-to-end checks of `lulesh_app --slabs`.

  check_slabs.py --app build/examples/lulesh_app --dir <writable dir>

1. A 3-slab run prints the same origin energy and symmetry lines as the
   1-slab run of the same problem, and its banner names its 3 slabs.
2. A 3-slab run saved at cycle 10 and resumed to cycle 20 prints the same
   CSV energy as an uninterrupted 20-cycle run (the checkpoint resume
   self-check, for a cluster's per-slab chain files).

Exits 1 naming the first check that fails.
"""

import argparse
import os
import subprocess
import sys

PROBLEM = ["-s", "8", "-t", "2", "-d", "taskgraph"]


def fail(msg):
    print(f"check_slabs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(app, *args):
    cmd = [app, *PROBLEM, *args]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
    if p.returncode != 0:
        fail(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return p.stdout


def report_lines(out):
    return [line for line in out.splitlines()
            if "origin energy" in line or "symmetry" in line]


def csv_energy(out):
    return out.strip().splitlines()[-1].split(",")[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()

    one = run(args.app, "-i", "20", "--slabs", "1")
    three = run(args.app, "-i", "20", "--slabs", "3")
    if "slabs: 3" not in three:
        fail("the 3-slab banner does not name its slabs")
    if len(report_lines(one)) != 4:
        fail(f"expected 4 energy/symmetry lines, got:\n{one}")
    if report_lines(three) != report_lines(one):
        fail("3 slabs and 1 slab disagree:\n" + "\n".join(
            report_lines(three) + ["vs"] + report_lines(one)))

    ckpt = os.path.join(args.dir, "check_slabs.ckpt")
    run(args.app, "-i", "10", "--slabs", "3", "-q", "--checkpoint-save", ckpt)
    resumed = run(args.app, "-i", "20", "--slabs", "3", "-q",
                  "--checkpoint-load", ckpt)
    if csv_energy(resumed) != csv_energy(three):
        fail(f"resumed energy {csv_energy(resumed)} != uninterrupted "
             f"{csv_energy(three)}")
    print("check_slabs: OK: 3 slabs match 1 slab, resume is exact")


if __name__ == "__main__":
    main()
