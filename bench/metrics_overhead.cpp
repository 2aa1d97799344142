// bench/metrics_overhead.cpp
//
// Measures the cost of the amt::metrics registry in both of its states:
//
//   (1) disarmed (the default): every probe on the task hot path is one
//       relaxed load of the global armed flag plus a predictable branch —
//       the same shape as the trace/fault/hazard probes.  A calibration
//       loop prices the probe, the task-graph iteration provides
//       tasks/iter, and the projected bill must stay under 1%.
//   (2) armed: the scheduler records a task-duration histogram sample and
//       a dispatch-queue-depth sample per task (single-writer relaxed
//       stores into the worker's own cache-line-padded shard), plus steal
//       latency per acquisition.  A timed armed run vs the disarmed run
//       must stay under 3% — the budget docs/observability.md promises.
//
// The binary exits non-zero if either budget is violated, so it doubles as
// a regression test (ctest label "metrics").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <thread>

#include "bench_common.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// ns per disarmed enabled() check, averaged over a long loop.  The probe
/// reads a global atomic, so the compiler cannot hoist it out of the loop.
double probe_cost_ns(std::uint64_t iterations) {
    std::uint64_t hits = 0;
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        if (amt::metrics::enabled()) ++hits;
    }
    const double ns =
        seconds_since(t0) * 1e9 / static_cast<double>(iterations);
    if (hits != 0) std::cerr << "(unexpectedly armed)\n";
    return ns;
}

/// Disarmed probes on the path of one task: the task clock's metered check,
/// the own-deque post's queue-depth check, and the worker loop's first-miss
/// stamp.
constexpr double probes_per_task = 3.0;

double run_once(const lulesh::options& problem, int iters) {
    lulesh::domain dom(problem);
    amt::runtime rt(std::max(1u, std::thread::hardware_concurrency()));
    lulesh::taskgraph_driver drv(rt, {512, 512});
    const auto t0 = clock_type::now();
    lulesh::run_simulation(dom, drv, iters);
    return seconds_since(t0);
}

}  // namespace

int main() {
    amt::metrics::disarm();

    // (1) raw disarmed probe cost.
    probe_cost_ns(1'000'000);  // warm-up
    const double ns_per_probe = probe_cost_ns(20'000'000);

    lulesh::options problem;
    problem.size = 16;
    problem.num_regions = 11;
    constexpr int iters = 30;

    double tasks_per_iter = 0.0;
    {
        lulesh::domain dom(problem);
        amt::runtime rt(std::max(1u, std::thread::hardware_concurrency()));
        lulesh::taskgraph_driver drv(rt, {512, 512});
        lulesh::run_simulation(dom, drv, iters);
        tasks_per_iter = static_cast<double>(drv.tasks_last_iteration());
    }

    // Interleaved disarmed/armed reps after the warm-up above.  The armed
    // overhead is computed *within* each rep pair and the minimum over reps
    // is kept (the checkpoint_overhead estimator): the armed cost is
    // strictly additive, so scheduler noise can only inflate a pairwise
    // ratio, never deflate the minimum below the true overhead.
    constexpr int reps = 7;
    double disarmed_s = 1e300;
    double armed_s = 1e300;
    double armed_pct = 1e300;
    for (int r = 0; r < reps; ++r) {
        amt::metrics::disarm();
        const double d = run_once(problem, iters);
        amt::metrics::arm();
        const double a = run_once(problem, iters);
        disarmed_s = std::min(disarmed_s, d);
        armed_s = std::min(armed_s, a);
        armed_pct = std::min(armed_pct, (a / d - 1.0) * 100.0);
    }
    amt::metrics::disarm();
    const double ns_per_iter = disarmed_s * 1e9 / iters;

    const double disarmed_pct =
        tasks_per_iter * probes_per_task * ns_per_probe / ns_per_iter * 100.0;

    // The armed run must actually have recorded something, or the 3% bound
    // was measured against a disconnected probe.
    const auto snap = amt::metrics::collect();
    std::uint64_t task_samples = 0;
    for (const auto& h : snap.histograms) {
        if (std::strcmp(h.name, "amt_task_duration_ns") == 0) {
            task_samples = h.count;
        }
    }

    std::cout << std::fixed << std::setprecision(3)
              << "disarmed probe cost:      " << ns_per_probe << " ns\n"
              << "task-graph iteration:     " << ns_per_iter / 1e6 << " ms ("
              << tasks_per_iter << " tasks, " << probes_per_task
              << " probes/task)\n"
              << "projected disarmed overhead: " << std::setprecision(4)
              << disarmed_pct << " % of iteration time\n"
              << "armed run:                " << std::setprecision(3)
              << armed_s * 1e3 / iters << " ms/iter  (+"
              << std::setprecision(2) << armed_pct << " %), "
              << task_samples << " task-duration samples\n";
    std::cout << "CSV,metrics_overhead," << std::setprecision(3)
              << ns_per_probe << "," << ns_per_iter / 1e6 << ","
              << tasks_per_iter << "," << std::setprecision(4) << disarmed_pct
              << "," << armed_pct << "\n";

    bench::artifact art("metrics_overhead");
    art.set_config("size", problem.size);
    art.set_config("iters", iters);
    art.set_config("reps", reps);
    art.add_sample("ns_per_probe", ns_per_probe, "ns");
    art.add_sample("disarmed_overhead_pct", disarmed_pct, "pct");
    art.add_sample("armed_overhead_pct", armed_pct, "pct");
    art.write_file();

    bool ok = true;
    if (!(disarmed_pct < 1.0)) {
        std::cerr << "FAIL: disarmed metrics-probe overhead " << disarmed_pct
                  << "% exceeds the 1% budget\n";
        ok = false;
    }
    // The 3% bar applies to the steady state; a reduced sweep with a
    // sub-250ms baseline cannot resolve 3% against scheduler noise even
    // with the pairwise-min estimator (the dist_recovery precedent), so
    // only baselines long enough to measure the bar are gated — shorter
    // runs still print their numbers, and the sample-count gate below
    // always applies.
    if (!(armed_pct < 3.0) && disarmed_s > 0.25) {
        std::cerr << "FAIL: armed metrics overhead " << armed_pct
                  << "% exceeds the 3% budget\n";
        ok = false;
    }
    if (task_samples == 0) {
        std::cerr << "FAIL: armed run recorded no task-duration samples\n";
        ok = false;
    }
    if (!ok) return 1;
    std::cout << "PASS: disarmed within 1%, armed within 3%\n";
    return 0;
}
