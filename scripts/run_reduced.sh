#!/usr/bin/env bash
# Reduced evaluation (the analogue of the paper artifact's run-reduced.sh):
# scaled-down sweeps of every figure/table that finish in a few minutes on a
# small machine.  Results land in results/ as plain text with CSV rows.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

echo "== Figure 9: runtime vs threads =="
./build/bench/fig9_runtime_vs_threads | tee results/fig9.txt
echo "== Figure 10: speed-up vs regions =="
./build/bench/fig10_speedup_regions | tee results/fig10.txt
echo "== Figure 11: productive-time ratio =="
./build/bench/fig11_utilization | tee results/fig11.txt
echo "== Table I: partition sweep =="
./build/bench/table1_partition_sweep | tee results/table1.txt
echo "== Ablation =="
./build/bench/ablation_tricks | tee results/ablation.txt
echo "== Extension: distributed halo exchange =="
./build/bench/dist_scaling | tee results/dist.txt
echo "== Phase breakdown =="
./build/bench/phase_breakdown | tee results/phase.txt
echo "== Fault-probe overhead (<1% budget) =="
./build/bench/fault_overhead | tee results/fault_overhead.txt
echo "== Trace-probe overhead (<1% budget, drop-not-block) =="
./build/bench/trace_overhead | tee results/trace_overhead.txt
echo "== Checkpoint overhead at every-cycle cadence (<5% budget) =="
./build/bench/checkpoint_overhead | tee results/checkpoint_overhead.txt

# Task tracer smoke: a traced run producing the checked-in Chrome trace and
# the per-phase utilization report, both validated (structure, monotonic
# per-thread timestamps, span nesting, coverage within 2%) — see
# docs/observability.md.
echo "== Task trace + per-phase utilization =="
./build/examples/lulesh_app -s 8 -i 10 -t 2 -d taskgraph \
  --trace=results/trace_smoke.json \
  --utilization-report=results/utilization_phase.txt
./build/examples/lulesh_app -s 8 -i 10 -t 2 -d taskgraph \
  --utilization-report=results/utilization_phase.json --quiet
python3 scripts/validate_trace.py results/trace_smoke.json \
  --report results/utilization_phase.json

# Source-level lint: task/future misuse (dangling captures, blocking gets,
# undeclared wave-body accesses, mutable statics, discarded futures) against
# the checked-in empty baseline — docs/static-analysis.md.
echo "== amtlint (task/future misuse) =="
scripts/lint.sh | tee results/amtlint.txt

# Static graph audit: prove the barrier-elision is race-free for every
# driver/size the reduced suite exercises (the run itself is one cycle; the
# audit happens at startup and fails the command with exit code 6 on any
# unordered overlap).  The --slabs invocations audit every slab with its
# halo pack/unpack tasks.
echo "== Graph hazard audit =="
{
  for s in 10 16 24; do
    ./build/examples/lulesh_app --audit-graph -s "$s" -i 1 -d taskgraph
  done
  ./build/examples/lulesh_app --audit-graph -s 16 -i 1 -d taskgraph -p 64 64
  ./build/examples/lulesh_app --audit-graph -s 16 -i 1 -d taskgraph -p 512 512
  ./build/examples/lulesh_app --audit-graph -s 8 -i 2 -t 3 --slabs 3
  ./build/examples/lulesh_app --audit-graph -s 8 -i 2 -t 8 --slabs 8 -p 64 64
} | tee results/graph_audit.txt

# Resilience/fault suite under ASan+UBSan, when the sanitize preset has been
# configured (cmake --preset sanitize && cmake --build build-sanitize).
if [ -d build-sanitize ]; then
  echo "== Sanitized resilience suite (ctest -L sanitize) =="
  ctest --test-dir build-sanitize -L sanitize --output-on-failure |
    tee results/sanitize.txt
else
  echo "(skipping sanitized suite: configure with 'cmake --preset sanitize')"
fi

# Scheduler/task-graph concurrency suite under ThreadSanitizer, when the
# tsan preset has been configured (cmake --preset tsan && cmake --build
# build-tsan) — the dynamic witness for the graph auditor's static
# race-freedom proof.
if [ -d build-tsan ]; then
  echo "== ThreadSanitizer concurrency suite (ctest -L tsan) =="
  ctest --test-dir build-tsan -L tsan --output-on-failure |
    tee results/tsan.txt
else
  echo "(skipping TSan suite: configure with 'cmake --preset tsan')"
fi

echo
echo "All reduced-sweep results written to results/."
echo "Summarize with: python3 scripts/generate_tables.py results/*.txt"
