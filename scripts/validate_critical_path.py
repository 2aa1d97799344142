#!/usr/bin/env python3
"""Round-trip check for `lulesh_app --critical-path-report`.

Runs the app (or consumes pre-captured output), then verifies that the
human-readable text report and the JSON document describe the SAME
analysis.  The writers make this checkable without tolerances: durations
cross both boundaries as the same llround()ed integer nanoseconds and
ratios as the same %.4f strings (core/critical_path.cpp), so every number
is compared for exact equality.

Checks (all hard failures, exit code 1):
  * the JSON parses, is the "critical_path" experiment, and carries every
    field of the report (iterations/workers/nodes/work_ns/
    critical_path_ns/critical_path_len/ideal_speedup, 4 phases (the
    graph's waves), the path
    node sequence, the top-k table);
  * internal invariants: critical path <= total work, ideal_speedup ==
    work/critical rounded to 4 decimals, critical_path_len == the path
    array length, every path node flagged "critical", per-phase
    parallelism == work/chain, slack >= 0, top sorted by mean cost;
  * text/JSON agreement: header counts, work, critical path length and
    node count, ideal speedup, each phase row (tasks, work, chain,
    parallelism, slack), and each top-task line (label, stage, mean, runs)
    match exactly.

Usage:
  validate_critical_path.py --app build/examples/lulesh_app \\
      --json out.json [-- app args...]
  validate_critical_path.py --json out.json --text report.txt
"""

import argparse
import json
import re
import subprocess
import sys

NUM_PHASES = 4


def fail(msg):
    print(f"validate_critical_path: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def ratio(v):
    return f"{v:.4f}"


def ratio_consistent(reported, num, den):
    """reported (a %.4f-rendered ratio of unrounded doubles) vs num/den
    recomputed from the llround()ed integers: agreement up to the +-0.5 ns
    rounding of numerator and denominator plus the 4-decimal rendering."""
    if den <= 0:
        return num == 0
    slack = 0.5 * (1.0 + abs(reported)) / den + 5.5e-5
    return abs(reported - num / den) <= slack


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load JSON report {path}: {e}")
    for key in ("experiment", "iterations", "workers", "nodes", "work_ns",
                "critical_path_ns", "critical_path_len", "ideal_speedup",
                "phases", "critical_path", "top"):
        if key not in doc:
            fail(f"JSON report missing key {key!r}")
    if doc["experiment"] != "critical_path":
        fail(f"unexpected experiment {doc['experiment']!r}")
    return doc


def check_invariants(doc):
    work = doc["work_ns"]
    path_ns = doc["critical_path_ns"]
    if doc["iterations"] <= 0:
        fail("report has zero profiled iterations")
    if not 0 < path_ns <= work + 1:
        fail(f"critical path {path_ns} ns vs work {work} ns is impossible")
    if not ratio_consistent(doc["ideal_speedup"], work, path_ns):
        fail(f"ideal_speedup {doc['ideal_speedup']} != work/critical "
             f"{work / path_ns:.6f}")
    if len(doc["phases"]) != NUM_PHASES:
        fail(f"expected {NUM_PHASES} phases, got {len(doc['phases'])}")
    if doc["critical_path_len"] != len(doc["critical_path"]):
        fail("critical_path_len disagrees with the path array")
    for t in doc["critical_path"]:
        if not t["critical"]:
            fail(f"path node {t['label']!r} not flagged critical")
    # The path's per-node means are llround()ed independently, so their sum
    # may differ from the llround()ed total by half an ns per node.
    path_sum = sum(t["mean_ns"] for t in doc["critical_path"])
    if abs(path_sum - path_ns) > max(1, len(doc["critical_path"])):
        fail(f"path node means sum to {path_sum}, report says {path_ns}")
    for ph in doc["phases"]:
        if ph["tasks"] <= 0:
            fail(f"phase {ph['name']!r} binned no tasks")
        if ph["chain_ns"] > ph["work_ns"] + 1:
            fail(f"phase {ph['name']!r}: chain exceeds work")
        if ph["chain_ns"] > 0 and not ratio_consistent(
                ph["parallelism"], ph["work_ns"], ph["chain_ns"]):
            fail(f"phase {ph['name']!r}: parallelism != work/chain")
        if ph["slack_ns"] < 0:
            fail(f"phase {ph['name']!r}: negative slack")
    tops = doc["top"]
    for a, b in zip(tops, tops[1:]):
        if a["mean_ns"] < b["mean_ns"]:
            fail("top tasks not sorted by mean cost")


def check_text_agreement(text, doc):
    m = re.search(r"critical-path report: (\d+) profiled iterations, "
                  r"(\d+) workers, (\d+) nodes", text)
    if not m:
        fail("text report header not found")
    if [int(g) for g in m.groups()] != \
            [doc["iterations"], doc["workers"], doc["nodes"]]:
        fail(f"text header {m.groups()} disagrees with JSON")

    def expect(needle, what):
        if needle not in text:
            fail(f"text/JSON mismatch: {what}: {needle!r} not in text")

    expect(f"iteration work:  {doc['work_ns']} ns", "work_ns")
    expect(f"critical path:   {doc['critical_path_ns']} ns over "
           f"{doc['critical_path_len']} nodes", "critical_path_ns")
    expect(f"ideal speedup:   {ratio(doc['ideal_speedup'])}x",
           "ideal_speedup")
    for ph in doc["phases"]:
        row = re.search(
            rf"^  {re.escape(ph['name'])}\s+(\d+)\s+(-?\d+)\s+(-?\d+)"
            rf"\s+(\d+\.\d{{4}})\s+(-?\d+)\s*$", text, re.M)
        if not row:
            fail(f"phase row for {ph['name']!r} not found in text")
        got = [row.group(1), row.group(2), row.group(3), row.group(4),
               row.group(5)]
        want = [str(ph["tasks"]), str(ph["work_ns"]), str(ph["chain_ns"]),
                ratio(ph["parallelism"]), str(ph["slack_ns"])]
        if got != want:
            fail(f"phase {ph['name']!r}: text row {got} != JSON {want}")
    for i, t in enumerate(doc["top"]):
        label = t["label"] + (f"[{t['arg']}]" if t["arg"] >= 0 else "")
        expect(f"    {i + 1}. {label} stage={t['stage']} "
               f"mean_ns={t['mean_ns']} runs={t['runs']}",
               f"top task #{i + 1}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--app", help="lulesh_app binary; runs it with "
                    "--critical-path-report=<--json> and the extra args")
    ap.add_argument("--json", required=True,
                    help="JSON report path (output when --app is given)")
    ap.add_argument("--text",
                    help="pre-captured text report (instead of --app)")
    ap.add_argument("args", nargs="*",
                    help="extra app arguments after '--'")
    opts = ap.parse_args()

    if bool(opts.app) == bool(opts.text):
        ap.error("exactly one of --app or --text is required")

    if opts.app:
        cmd = [opts.app, f"--critical-path-report={opts.json}"] + opts.args
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=280)
        if proc.returncode != 0:
            fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
        text = proc.stdout
    else:
        with open(opts.text, encoding="utf-8") as fh:
            text = fh.read()

    doc = load_json(opts.json)
    check_invariants(doc)
    check_text_agreement(text, doc)
    print(f"validate_critical_path: OK: {doc['nodes']} nodes, "
          f"{doc['iterations']} iterations, ideal speedup "
          f"{ratio(doc['ideal_speedup'])}x, text and JSON agree")


if __name__ == "__main__":
    main()
