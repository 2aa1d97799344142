#!/usr/bin/env python3
"""Self-test of the performance ledger.  Run from the repository root:

    python3 perfbench/selftest.py

It builds perfbench the way run.py does and checks that

  1. the full-length sedov30 solve on the reference region map reproduces
     LULESH 2.0's published 932 cycles and origin energy 2.025075e+05;
  2. a wrong reference digest makes every solve count as failed and the
     result read "correct": false, for a single domain (fine16) and for
     the per-slab digests of a cluster (dist30);
  3. every metric BENCHMARK.json names is printed, with its unit, by the
     mode that owns it (--trace 0 end-to-end, --trace 1 per-layer), on
     every workload, and the run is correct.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as ledger  # noqa: E402


def last_json(text):
    return json.loads(text.rstrip("\n").split("\n")[-1])


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    return ok


def anchor_check(binary):
    path = ledger.reference(binary, "sedov30", 0, time.monotonic() + 170)
    with open(path) as f:
        fields = dict(line.split(" ", 1) for line in f.read().splitlines()[1:])
    return check(fields["anchor"] == "932 2.025075e+05",
                 "sedov30 full-length solve: %s (published 932 2.025075e+05)"
                 % fields["anchor"])


def wrong_digest_check(binary, workload):
    good = ledger.reference(binary, workload, 0, time.monotonic() + 170)
    bad = os.path.join(ledger.build_dir(),
                       "perfbench-selftest-%s.ref" % workload)
    lines = []
    with open(good) as f:
        for line in f.read().splitlines():
            key, _, rest = line.partition(" ")
            if key == "whole":
                rest = "%x" % (int(rest, 16) ^ 1)
            elif key == "slabs":
                count, *digests = rest.split()
                rest = " ".join([count] +
                                ["%x" % (int(d, 16) ^ 1) for d in digests])
            lines.append(key + (" " + rest if rest else ""))
    with open(bad, "w") as f:
        f.write("\n".join(lines) + "\n")
    proc = subprocess.run([binary, "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", "0", "--ref", bad],
                          capture_output=True, text=True, timeout=170)
    os.remove(bad)
    result = last_json(proc.stdout)
    return check(proc.returncode == 0 and result["correct"] is False and
                 result["attempted"] >= 1 and
                 result["failed"] == result["attempted"],
                 "%s with a wrong reference digest: %d of %d solves failed, "
                 "correct=%s" % (workload, result["failed"],
                                 result["attempted"], result["correct"]))


def metrics_check(spec, workload, trace):
    named = spec["per_layer" if trace else "end_to_end"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", "0",
                           "--seconds", "2", "--trace", str(trace)],
                          cwd=ledger.ROOT, capture_output=True, text=True,
                          timeout=178)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return check(False, "%s --trace %d exits 0" % (workload, trace))
    result = last_json(proc.stdout)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in named}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in want if n in got and got[n] != want[n])
    return check(result["correct"] is True and not missing and not extra and
                 not wrong_unit,
                 "%s --trace %d: %d metrics, correct=%s%s%s%s" % (
                     workload, trace, len(got), result["correct"],
                     "; missing %s" % missing if missing else "",
                     "; unnamed %s" % extra if extra else "",
                     "; wrong units %s" % wrong_unit if wrong_unit else ""))


def main():
    with open(os.path.join(ledger.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = ledger.build()
    results = [anchor_check(binary)]
    results += [wrong_digest_check(binary, w) for w in ("fine16", "dist30")]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            results.append(metrics_check(spec, workload, trace))
    print("%d of %d checks passed" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
