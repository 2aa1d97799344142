#!/usr/bin/env python3
"""Performance ledger for the LULESH task-graph reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sedov30 --seed 0 --seconds 15 --trace 0

It builds the perfbench binary from the checkout's sources (Release, into
.bench_build/ or $CARGO_TARGET_DIR), makes the serial reference digest for
the workload and seed once (cached next to the build, keyed by the
binary's hash), runs one measurement and relays its output.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit status is 0 when a result was printed and non-zero otherwise (bad
arguments, no sources to build, a failed build, a crashed or late run).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sedov30", "fine16", "dist30")
BUILD_TIMEOUT_S = 850   # a cold build of the libraries on a small host
RUN_LIMIT_S = 175       # one measured run, reference included


def fail(message, code=2):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_group(cmd, timeout, stdout, stderr=None):
    """Runs cmd in its own process group, so that a timeout stops every
    process it started; returns (exit code or None on timeout, output)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LULESH sources under %s to build" % ROOT)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, log, subprocess.STDOUT)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def reference(binary, workload, seed, deadline):
    """Path of the serial reference of (workload, seed) for this binary,
    computing it on first use."""
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16]
    rdir = os.path.join(build_dir(), "perfbench-refs", key)
    path = os.path.join(rdir, "%s-seed%d.ref" % (workload, seed))
    if not os.path.isfile(path):
        os.makedirs(rdir, exist_ok=True)
        tmp = path + ".tmp"
        code, _ = run_group([binary, "--make-ref", "--workload", workload,
                             "--seed", str(seed), "--out", tmp],
                            max(1.0, deadline - time.monotonic()), sys.stderr)
        if code != 0:
            fail("making the serial reference failed", 1)
        os.replace(tmp, path)
    return path


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    ref = reference(binary, args.workload, args.seed, deadline)
    code, out = run_group([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", str(args.trace), "--ref", ref],
                          max(1.0, deadline - time.monotonic()),
                          subprocess.PIPE)
    if code is None:
        fail("the run did not finish in time", 1)
    lines = (out or "").rstrip("\n").split("\n")
    if code != 0 or not valid_result(lines[-1]):
        sys.stderr.write(out or "")
        fail("the run failed (exit status %s)" % code, 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
