// bench/trace_overhead.cpp
//
// Measures the cost of the task tracer in both of its cheap states:
//
//   (1) disarmed (the default): every probe on the task hot path is one
//       relaxed atomic load plus a predictable branch.  A calibration loop
//       prices the probe, the task-graph iteration provides tasks/iter, and
//       the projected bill (probes/task × ns/probe ÷ ns/iter) must stay
//       under 1% — the same bar fault_overhead sets.
//   (2) armed with a deliberately tiny ring: recording drops events rather
//       than blocking, so the run completes at full task throughput, the
//       drop counter reports what was lost, and the kept prefix is still a
//       valid trace.
//
// The binary exits non-zero if either property is violated, so it doubles
// as a regression test.

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

/// ns per disarmed probe, averaged over a long loop.  trace::mark has the
/// shape of every task-path probe: it reads the global armed flag, so the
/// compiler cannot hoist it out of the loop.
double probe_cost_ns(std::uint64_t iterations) {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        amt::trace::mark("bench", 0);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(iterations);
}

/// Disarmed probes on the path of one task — the scheduler's pre-execute
/// gap check and the task clock's tracing check — rounded up to cover the
/// steal-instant and scoped-span probes some tasks also pass.
constexpr double probes_per_task = 4.0;

}  // namespace

int main() {
    amt::trace::disarm();

    // (1) raw disarmed probe cost.
    probe_cost_ns(1'000'000);  // warm-up
    const double ns_per_probe = probe_cost_ns(20'000'000);

    lulesh::options problem;
    problem.size = 16;
    problem.num_regions = 11;
    constexpr int iters = 30;

    double ns_per_iter = 0.0;
    double tasks_per_iter = 0.0;
    {
        lulesh::domain dom(problem);
        amt::runtime rt(std::max(1u, std::thread::hardware_concurrency()));
        lulesh::taskgraph_driver drv(rt, {512, 512});
        lulesh::run_simulation(dom, drv, iters);  // policy warm-up
        lulesh::domain dom2(problem);
        const auto t0 = clock_type::now();
        lulesh::run_simulation(dom2, drv, iters);
        ns_per_iter = seconds_since(t0) * 1e9 / iters;
        tasks_per_iter = static_cast<double>(drv.tasks_last_iteration());
    }

    const double overhead =
        tasks_per_iter * probes_per_task * ns_per_probe / ns_per_iter * 100.0;

    std::cout << std::fixed << std::setprecision(3)
              << "disarmed probe cost:     " << ns_per_probe << " ns\n"
              << "task-graph iteration:    " << ns_per_iter / 1e6 << " ms ("
              << tasks_per_iter << " tasks, " << probes_per_task
              << " probes/task)\n"
              << "projected trace overhead: " << std::setprecision(4)
              << overhead << " % of iteration time\n";

    // (2) armed with a tiny ring: the run must complete (drop-not-block)
    // and account for the overflow in the drop counter.
    amt::trace::reset();
    amt::trace::set_ring_capacity(256);
    amt::trace::set_thread_name("main");
    amt::trace::arm();
    double armed_ns_per_iter = 0.0;
    {
        lulesh::domain dom(problem);
        amt::runtime rt(std::max(1u, std::thread::hardware_concurrency()));
        lulesh::taskgraph_driver drv(rt, {512, 512});
        const auto t0 = clock_type::now();
        lulesh::run_simulation(dom, drv, iters);
        armed_ns_per_iter = seconds_since(t0) * 1e9 / iters;
    }
    amt::trace::disarm();
    const auto snap = amt::trace::drain();
    std::size_t kept = 0;
    for (const auto& t : snap.threads) kept += t.events.size();
    const auto report = amt::trace::build_utilization(snap);
    const double armed_ratio = armed_ns_per_iter / ns_per_iter;

    std::cout << "armed (256-event rings): " << std::setprecision(3)
              << armed_ns_per_iter / 1e6 << " ms/iter ("
              << std::setprecision(2) << armed_ratio
              << "x disarmed), kept " << kept << " events, dropped "
              << snap.dropped << "\n";
    std::cout << "CSV,trace_overhead," << std::setprecision(3) << ns_per_probe
              << "," << ns_per_iter / 1e6 << "," << tasks_per_iter << ","
              << std::setprecision(4) << overhead << "," << kept << ","
              << snap.dropped << "\n";

    bench::artifact art("trace_overhead");
    art.set_config("size", problem.size);
    art.set_config("iters", iters);
    art.add_sample("ns_per_probe", ns_per_probe, "ns");
    art.add_sample("disarmed_overhead_pct", overhead, "pct");
    art.add_sample("armed_ratio", armed_ratio, "ratio");
    art.write_file();

    bool ok = true;
    if (!(overhead < 1.0)) {
        std::cerr << "FAIL: disarmed trace-probe overhead " << overhead
                  << "% exceeds the 1% budget\n";
        ok = false;
    }
    if (snap.dropped == 0) {
        std::cerr << "FAIL: 256-event rings held a full reduced run — "
                     "overflow path not exercised\n";
        ok = false;
    }
    if (report.dropped != snap.dropped) {
        std::cerr << "FAIL: utilization report lost the drop counter ("
                  << report.dropped << " != " << snap.dropped << ")\n";
        ok = false;
    }
    if (kept == 0) {
        std::cerr << "FAIL: armed run recorded nothing\n";
        ok = false;
    }
    if (!ok) return 1;
    std::cout << "PASS: disarmed within the 1% budget; armed drops, never "
                 "blocks\n";
    return 0;
}
