// bench/hazard_overhead.cpp
//
// Measures the cost of the hazard tracker when disarmed — the price every
// production run pays for having the shadow-epoch instrumentation compiled
// in.  Three measurements:
//
//   (1) the raw per-probe cost of a disarmed touch() (a relaxed atomic load
//       + predictable branch, same as the fault probes),
//   (2) the cost of constructing/destructing a disarmed task_scope (one
//       load-and-branch, no allocation), and
//   (3) the task-graph iteration time and task count, giving the projected
//       per-iteration bill: every wave task opens one scope and the
//       instrumented kernels issue a handful of touches.
//
// The projected overhead must stay under 1% of an iteration — the
// disarmed-cost bar the hazard auditor promises.  The binary exits non-zero
// when the bound is violated, so it doubles as a regression test.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <thread>

#include "amt/hazard.hpp"
#include "bench_common.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// ns per disarmed touch(), averaged over a long loop.  The probe reads a
/// global atomic, so the compiler cannot hoist it out of the loop.
double touch_cost_ns(std::uint64_t iterations) {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        amt::hazard::touch(0, true, 0, 1);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(iterations);
}

/// ns per disarmed task_scope open/close pair.
double scope_cost_ns(std::uint64_t iterations) {
    const amt::hazard::access_set decl;  // never consulted while disarmed
    const int key = 0;
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        amt::hazard::task_scope scope(&key, "bench", 0, &decl);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(iterations);
}

/// Upper bound on instrumentation points per task: one scope plus the
/// touch probes the busiest instrumented kernel issues (<= 6 today).
constexpr double touches_per_task = 6.0;

}  // namespace

int main() {
    amt::hazard::disarm();

    // (1) + (2): raw disarmed probe costs.
    touch_cost_ns(1'000'000);  // warm-up
    const double ns_per_touch = touch_cost_ns(20'000'000);
    scope_cost_ns(1'000'000);  // warm-up
    const double ns_per_scope = scope_cost_ns(20'000'000);

    // (3) task-graph iteration time and task count.
    lulesh::options problem;
    problem.size = 16;
    problem.num_regions = 11;
    lulesh::domain dom(problem);
    amt::runtime rt(std::max(1u, std::thread::hardware_concurrency()));
    lulesh::taskgraph_driver drv(rt, {512, 512});

    constexpr int iters = 30;
    lulesh::run_simulation(dom, drv, iters);  // policy warm-up
    lulesh::domain dom2(problem);
    const auto t0 = clock_type::now();
    lulesh::run_simulation(dom2, drv, iters);
    const double ns_per_iter = seconds_since(t0) * 1e9 / iters;
    const auto tasks_per_iter =
        static_cast<double>(drv.tasks_last_iteration());

    const double ns_per_task = ns_per_scope + touches_per_task * ns_per_touch;
    const double overhead = tasks_per_iter * ns_per_task / ns_per_iter * 100.0;

    std::cout << std::fixed << std::setprecision(3)
              << "disarmed touch cost:      " << ns_per_touch << " ns\n"
              << "disarmed scope cost:      " << ns_per_scope << " ns\n"
              << "task-graph iteration:     " << ns_per_iter / 1e6 << " ms ("
              << tasks_per_iter << " tasks)\n"
              << "projected hazard overhead: " << std::setprecision(4)
              << overhead << " % of iteration time\n"
              << "CSV,hazard_overhead," << ns_per_touch << "," << ns_per_scope
              << "," << ns_per_iter / 1e6 << "," << tasks_per_iter << ","
              << overhead << "\n";

    bench::artifact art("hazard_overhead");
    art.set_config("size", problem.size);
    art.set_config("iters", iters);
    art.add_sample("ns_per_touch", ns_per_touch, "ns");
    art.add_sample("ns_per_scope", ns_per_scope, "ns");
    art.add_sample("disarmed_overhead_pct", overhead, "pct");
    art.write_file();

    if (!(overhead < 1.0)) {
        std::cerr << "FAIL: disarmed hazard-probe overhead " << overhead
                  << "% exceeds the 1% budget\n";
        return 1;
    }
    std::cout << "PASS: overhead within the 1% budget\n";
    return 0;
}
