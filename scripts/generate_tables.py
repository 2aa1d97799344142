#!/usr/bin/env python3
"""Summarize benchmark CSV rows into paper-style tables.

The analogue of the paper artifact's generate-graphs.py, kept text-only so
it runs without plotting dependencies.  Feed it any mix of the results/*.txt
files produced by the bench binaries (they interleave human-readable tables
with machine-readable lines starting with "CSV,<experiment>,...").

Two JSON observability artifacts are also understood and rendered when
passed alongside the text files: the critical-path report
(`lulesh_app --critical-path-report=cp.json`) and the metrics reporter's
JSON-lines file (`--metrics=metrics.json`); the last snapshot of the
latter is summarized.

Usage:
    python3 scripts/generate_tables.py results/*.txt [cp.json metrics.json]
"""

import json
import sys
from collections import defaultdict


def classify_json(path):
    """(kind, payload) for the two JSON observability artifacts; (None, None)
    for plain CSV/text files."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
        if not first.startswith("{"):
            return None, None
        doc = json.loads(first)
    except (OSError, json.JSONDecodeError):
        return None, None
    if doc.get("experiment") == "critical_path":
        return "critical_path", doc
    if "ts_ms" in doc and "histograms" in doc:
        # Metrics reporter JSON lines: keep the final (cumulative) snapshot.
        last = doc
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    last = json.loads(line)
        return "metrics", last
    return None, None


def load_rows(paths):
    rows = defaultdict(list)
    json_docs = []
    for path in paths:
        kind, doc = classify_json(path)
        if kind is not None:
            json_docs.append((kind, doc))
            continue
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("CSV,"):
                    continue
                parts = line.split(",")
                rows[parts[1]].append(parts[2:])
    return rows, json_docs


def fmt(value, width=10):
    try:
        return f"{float(value):{width}.4g}"
    except ValueError:
        return f"{value:>{width}}"


def table(title, header, data):
    print(f"\n### {title}")
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for row in data:
        print("  " + "  ".join(fmt(v) for v in row))


def summarize_fig9(rows):
    # size, threads, omp_s, task_s, speedup
    table("Figure 9 — runtime vs threads (speed-up = omp/task)",
          ["size", "threads", "omp(s)", "task(s)", "speedup"], rows)
    best = defaultdict(lambda: (0.0, None))
    for size, threads, _, _, speedup in rows:
        if float(speedup) > best[size][0]:
            best[size] = (float(speedup), threads)
    print("  best speed-up per size:")
    for size, (s, threads) in sorted(best.items(), key=lambda kv: int(kv[0])):
        print(f"    size {size}: {s:.2f}x at {threads} threads")


def summarize_fig10(rows):
    # size, regions, threads, omp_s, task_s, speedup
    table("Figure 10 — speed-up vs regions",
          ["size", "regions", "threads", "omp(s)", "task(s)", "speedup"], rows)
    sizes = sorted({r[0] for r in rows}, key=int)
    print("  speed-up trend with region count:")
    for size in sizes:
        ordered = sorted((r for r in rows if r[0] == size), key=lambda r: int(r[1]))
        trend = " -> ".join(f"{float(r[5]):.2f}x@r{r[1]}" for r in ordered)
        print(f"    size {size}: {trend}")


def summarize_fig11(rows):
    # size, threads, omp_ratio, task_ratio
    table("Figure 11 — productive-time ratio",
          ["size", "threads", "omp", "task"], rows)
    for size, _, omp, task in rows:
        gap = float(task) / float(omp) if float(omp) > 0 else float("inf")
        print(f"    size {size}: task graph {gap:.2f}x more productive")


def summarize_phase_breakdown(title, rows):
    # phase, workers, window_s, productive_s, steal_s, idle_s, barrier_s,
    # tasks, steals, util — one row per leapfrog phase (tracer attribution).
    table(title,
          ["phase", "workers", "window(s)", "prod(s)", "steal(s)", "idle(s)",
           "barrier(s)", "tasks", "steals", "util"], rows)
    total = sum(float(r[3]) + float(r[4]) + float(r[5]) + float(r[6])
                for r in rows)
    if total <= 0:
        return
    print("  where the worker time goes:")
    for r in sorted(rows, key=lambda r: -(float(r[4]) + float(r[5]) +
                                          float(r[6]))):
        lost = float(r[4]) + float(r[5]) + float(r[6])
        print(f"    {r[0]}: {100 * float(r[3]) / total:5.1f}% productive, "
              f"{100 * lost / total:5.1f}% lost "
              f"(steal {float(r[4]):.4g}s, idle {float(r[5]):.4g}s, "
              f"barrier {float(r[6]):.4g}s)")


def summarize_util_phase(rows):
    summarize_phase_breakdown(
        "Per-phase utilization (--utilization-report)", rows)


def summarize_fig11_phase(rows):
    # size, threads, phase, window_s, productive_s, steal_s, idle_s,
    # barrier_s, tasks, steals, util — reshape to the util_phase layout.
    for (size, threads) in sorted({(r[0], r[1]) for r in rows},
                                  key=lambda k: (int(k[0]), int(k[1]))):
        subset = [[r[2], threads] + r[3:] for r in rows
                  if r[0] == size and r[1] == threads]
        summarize_phase_breakdown(
            f"Figure 11 — per-phase breakdown (size {size}, "
            f"{threads} threads)", subset)


def summarize_table1(rows):
    # size, nodal, elems, seconds
    by_size = defaultdict(list)
    for size, nodal, elems, seconds in rows:
        by_size[size].append((int(nodal), int(elems), float(seconds)))
    print("\n### Table I — best partition sizes")
    for size in sorted(by_size, key=int):
        cells = by_size[size]
        nodal, elems, seconds = min(cells, key=lambda c: c[2])
        worst = max(cells, key=lambda c: c[2])
        print(f"  size {size}: best (nodal={nodal}, elems={elems}) at "
              f"{seconds:.4g}s; worst/best = {worst[2] / seconds:.2f}x")


def summarize_checkpoint_overhead(rows):
    # plain_ms, resilient_ms, pct — iteration cost at checkpoint-every-1,
    # the resilient loop against the plain one.
    table("Checkpoint overhead at every-cycle cadence (budget: < 5%)",
          ["plain(ms)", "resilient(ms)", "overhead(%)"], rows)


def summarize_dist_recovery(rows):
    # size, slabs, base_s, armed_s, overhead_pct, mttr_ms, recoveries —
    # fault-free run vs a run with an injected slab_kill that the resilient
    # driver rolls back and replays (bench/dist_recovery).
    table("Distributed recovery — slab_kill rollback cost (MTTR + overhead)",
          ["size", "slabs", "base(s)", "armed(s)", "overhead%", "mttr(ms)",
           "recoveries"], rows)
    for size, slabs, base, armed, overhead, mttr, recoveries in rows:
        per = float(mttr) / float(recoveries) if float(recoveries) > 0 else 0.0
        print(f"    size {size} x {slabs} slabs: {recoveries} recovery(ies), "
              f"{per:.1f} ms MTTR each, run stretched "
              f"{float(armed) - float(base):.3g}s "
              f"({float(overhead):.1f}%) over the fault-free baseline")


def summarize_replay_gate(rows):
    # workers, iters, build_ns_task, replay_ns_task, ratio, build_allocs_iter,
    # replay_allocs_iter — bench/micro_runtime --replay-gate (ctest -L perf).
    table("Compiled-graph replay vs per-iteration build "
          "(gate: ratio >= 1.15, replay allocs = 0)",
          ["workers", "iters", "build ns/t", "replay ns/t", "ratio",
           "build a/it", "replay a/it"], rows)
    for workers, _, _, _, ratio, build_ai, replay_ai in rows:
        verdict = ("PASS" if float(ratio) >= 1.15 and float(replay_ai) == 0
                   else "FAIL")
        print(f"    {workers} workers: replay {float(ratio):.2f}x faster, "
              f"eliminates {float(build_ai):.0f} allocs/iteration "
              f"({verdict})")


def summarize_metrics_overhead(rows):
    # ns_per_probe, iter_ms, tasks_per_iter, disarmed_pct, armed_pct —
    # bench/metrics_overhead's budgets (disarmed < 1%, armed < 3%).
    table("Metrics registry overhead (budget: disarmed < 1%, armed < 3%)",
          ["probe(ns)", "iter(ms)", "tasks/it", "disarmed%", "armed%"], rows)
    for probe, _, tasks, disarmed, armed in rows:
        print(f"    {float(tasks):.0f} tasks x 3 probes at "
              f"{float(probe):.3g} ns bill {float(disarmed):.4f}% disarmed; "
              f"armed run paid {float(armed):.2f}%")


def summarize_critical_path(doc):
    # The JSON twin of `lulesh_app --critical-path-report` (exact integer-ns
    # agreement with the text form is checked by validate_critical_path.py).
    print(f"\n### Critical path — {doc['iterations']} profiled iterations, "
          f"{doc['workers']} workers, {doc['nodes']} nodes")
    work = doc["work_ns"]
    print(f"  work {work / 1e6:.3f} ms/iter, critical path "
          f"{doc['critical_path_ns'] / 1e6:.3f} ms over "
          f"{doc['critical_path_len']} nodes, ideal speedup "
          f"{doc['ideal_speedup']:.4f}x")
    table("per-phase chain analysis",
          ["phase", "tasks", "work(ms)", "chain(ms)", "parallel", "slack(ms)"],
          [[ph["name"], ph["tasks"], ph["work_ns"] / 1e6,
            ph["chain_ns"] / 1e6, ph["parallelism"], ph["slack_ns"] / 1e6]
           for ph in doc["phases"]])
    bound = [ph for ph in doc["phases"] if ph["slack_ns"] > 0]
    for ph in sorted(bound, key=lambda p: -p["slack_ns"]):
        print(f"    {ph['name']}: chain-bound, {ph['slack_ns'] / 1e6:.3f} "
              f"ms/iter unrecoverable by load balancing (split partitions)")


def summarize_metrics_snapshot(doc):
    # Final snapshot of a --metrics JSON-lines file (amt::metrics registry).
    print(f"\n### Metrics snapshot — uptime {doc['uptime_ns'] / 1e9:.2f}s")
    counters = {k: v for k, v in doc.get("counters", {}).items() if v}
    for name in sorted(counters):
        print(f"  {name:<44} {counters[name]}")
    for name in sorted(doc.get("histograms", {})):
        h = doc["histograms"][name]
        if h["count"] == 0:
            continue
        mean = h["sum"] / h["count"]
        # Buckets are log2: bucket b holds values < 2^b; report the p99
        # bucket bound, the tail signal the registry exists to surface.
        total, seen, p99 = h["count"], 0, 0
        for b, c in enumerate(h["buckets"]):
            seen += c
            if seen >= 0.99 * total:
                p99 = (1 << b) - 1 if b else 0
                break
        print(f"  {name:<44} n={h['count']} mean={mean:.3g} p99<={p99}")


def summarize_generic(name, rows):
    if not rows:
        return
    width = max(len(r) for r in rows)
    table(name, [f"c{i}" for i in range(width)], rows)


def main(paths):
    if not paths:
        print(__doc__)
        return 1
    rows, json_docs = load_rows(paths)
    if not rows and not json_docs:
        print("no CSV rows found in the given files")
        return 1
    handlers = {
        "fig9": summarize_fig9,
        "fig10": summarize_fig10,
        "fig11": summarize_fig11,
        "fig11_phase": summarize_fig11_phase,
        "util_phase": summarize_util_phase,
        "table1": summarize_table1,
        "checkpoint_overhead": summarize_checkpoint_overhead,
        "dist_recovery": summarize_dist_recovery,
        "replay_gate": summarize_replay_gate,
        "metrics_overhead": summarize_metrics_overhead,
    }
    for name in sorted(rows):
        handler = handlers.get(name)
        if handler:
            handler(rows[name])
        else:
            summarize_generic(name, rows[name])
    for kind, doc in json_docs:
        if kind == "critical_path":
            summarize_critical_path(doc)
        else:
            summarize_metrics_snapshot(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
