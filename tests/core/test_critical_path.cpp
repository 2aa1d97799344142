// tests/core/test_critical_path.cpp — the LULESH-aware critical-path
// analyzer (core/critical_path.hpp): phase binning over a profiled
// compiled iteration, the longest-chain / slack arithmetic, the profile
// window taskgraph_driver::enable_node_profiling opens, and the exact
// text/JSON agreement the round-trip validator
// (scripts/validate_critical_path.py) depends on.

#include "core/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "amt/amt.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace {

using lulesh::analyze_critical_path;
using lulesh::critical_path_report;
using lulesh::domain;
using lulesh::options;
using lulesh::phase_profile;
using lulesh::taskgraph_driver;

struct profiled_run {
    std::unique_ptr<domain> dom;
    std::unique_ptr<amt::runtime> rt;
    std::unique_ptr<taskgraph_driver> drv;
    int iters = 0;
};

profiled_run run_profiled(int iters, bool profile = true) {
    profiled_run pr;
    options o;
    o.size = 8;
    o.num_regions = 4;
    pr.dom = std::make_unique<domain>(o);
    pr.rt = std::make_unique<amt::runtime>(2);
    pr.drv = std::make_unique<taskgraph_driver>(*pr.rt, lulesh::partition_sizes{64, 64});
    pr.drv->enable_node_profiling(profile);
    const auto rr = lulesh::run_simulation(*pr.dom, *pr.drv, iters);
    EXPECT_EQ(rr.run_status, lulesh::status::ok);
    pr.iters = iters;
    return pr;
}

TEST(CriticalPath, AnalyzeProfiledCompiledIteration) {
    const auto pr = run_profiled(6);
    ASSERT_NE(pr.drv->compiled(), nullptr);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);

    EXPECT_GT(r.iterations, 0u);
    EXPECT_LE(r.iterations, static_cast<std::uint64_t>(pr.iters));
    EXPECT_EQ(r.workers, 2u);
    EXPECT_GT(r.nodes, 0u);
    EXPECT_GT(r.work_ns, 0.0);
    EXPECT_GT(r.critical_path_ns, 0.0);
    // The longest chain can never exceed the total work, and the bound
    // work/critical-path is the ideal speedup by definition.
    EXPECT_LE(r.critical_path_ns, r.work_ns + 1.0);
    EXPECT_NEAR(r.ideal_speedup, r.work_ns / r.critical_path_ns, 1e-6);
    EXPECT_GE(r.ideal_speedup, 1.0 - 1e-9);

    // The reported path is a real node sequence whose mean costs sum to
    // the critical-path length, every node flagged.
    ASSERT_FALSE(r.critical_path.empty());
    double path_sum = 0.0;
    for (const auto& t : r.critical_path) {
        EXPECT_TRUE(t.on_critical_path);
        path_sum += t.mean_ns;
    }
    EXPECT_NEAR(path_sum, r.critical_path_ns,
                1e-6 * std::max(1.0, r.critical_path_ns));
}

// The reported path is the longest one.  Every node of the one-slab
// iteration feeds its wave's barrier and the barriers chain B1 → … → B4,
// so the longest path passes all four; and the phases' longest chains,
// strung together through the barriers, form one path it cannot be
// shorter than.
TEST(CriticalPath, ReportedPathIsTheLongestPath) {
    const auto pr = run_profiled(6);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);

    std::size_t barriers = 0;
    for (const auto& t : r.critical_path) {
        if (std::string(t.label) == "graph:barrier") ++barriers;
    }
    EXPECT_EQ(barriers, lulesh::graph::compiled_iteration::num_barriers);
    double chains = 0.0;
    for (const auto& ph : r.phases) chains += ph.chain_ns;
    EXPECT_GE(r.critical_path_ns * (1.0 + 1e-9), chains);
}

TEST(CriticalPath, PhaseBinningCoversEveryComputePhase) {
    const auto pr = run_profiled(6);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);

    // One row per graph wave: every phase but constraints, the driver's
    // dt reduction, which runs no graph node.
    ASSERT_EQ(r.phases.size(), phase_profile::num_phases - 1);
    double phase_work = 0.0;
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
        const auto& ph = r.phases[p];
        EXPECT_STREQ(ph.name, phase_profile::name(p));
        EXPECT_GT(ph.tasks, 0u) << ph.name;
        EXPECT_GT(ph.work_ns, 0.0) << ph.name;
        EXPECT_GE(ph.chain_ns, 0.0);
        // work / chain feeds a worker count; chain <= work within a phase.
        EXPECT_LE(ph.chain_ns, ph.work_ns + 1.0) << ph.name;
        EXPECT_GE(ph.parallelism, 1.0 - 1e-9) << ph.name;
        EXPECT_GE(ph.slack_ns, 0.0) << ph.name;
        phase_work += ph.work_ns;
    }
    // Phase work excludes only the barrier nodes, so it accounts for
    // almost all of the iteration's compute.
    EXPECT_LE(phase_work, r.work_ns + 1.0);
    EXPECT_GT(phase_work, 0.5 * r.work_ns);
}

TEST(CriticalPath, TopKIsBoundedAndSortedByMeanCost) {
    const auto pr = run_profiled(6);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2, 5);
    ASSERT_LE(r.top.size(), 5u);
    ASSERT_FALSE(r.top.empty());
    for (std::size_t i = 1; i < r.top.size(); ++i) {
        EXPECT_GE(r.top[i - 1].mean_ns, r.top[i].mean_ns);
    }
}

// Node costs are always collected; a window opened after the last replay
// is empty, and the report says so.
TEST(CriticalPath, UnprofiledRunReportsZeroIterations) {
    const auto pr = run_profiled(4, /*profile=*/false);
    ASSERT_NE(pr.drv->compiled(), nullptr);
    pr.drv->enable_node_profiling(true);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);
    EXPECT_EQ(r.iterations, 0u);
    std::ostringstream os;
    write_critical_path_text(os, r);
    EXPECT_NE(os.str().find("no profiled replays"), std::string::npos);
}

void advance_once(profiled_run& pr) {
    lulesh::kernels::time_increment(*pr.dom);
    pr.drv->advance(*pr.dom);
    ++pr.iters;
}

// Toggling the profile window is not part of the compiled shape: the graph
// object survives both directions and its replay count keeps counting.
TEST(CriticalPath, ProfilingToggleKeepsTheCompiledGraph) {
    auto pr = run_profiled(3);
    const lulesh::graph::compiled_iteration* ci = pr.drv->compiled();
    ASSERT_NE(ci, nullptr);
    const std::uint64_t replays = ci->replays();

    pr.drv->enable_node_profiling(false);
    advance_once(pr);
    EXPECT_EQ(pr.drv->compiled(), ci);
    EXPECT_EQ(ci->replays(), replays + 1);

    pr.drv->enable_node_profiling(true);
    advance_once(pr);
    EXPECT_EQ(pr.drv->compiled(), ci);
    EXPECT_EQ(ci->replays(), replays + 2);
}

// A report covers the replays since the last enable_node_profiling(true):
// costs accumulated before it are gone, costs after it all count, and
// enable_node_profiling(false) keeps accumulating.
TEST(CriticalPath, ReportCoversOnlyTheReplaysSinceTheWindowOpened) {
    auto pr = run_profiled(4, /*profile=*/false);
    EXPECT_EQ(analyze_critical_path(*pr.drv->compiled(), 2).iterations, 4u);

    pr.drv->enable_node_profiling(true);
    advance_once(pr);
    advance_once(pr);
    pr.drv->enable_node_profiling(false);
    advance_once(pr);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);
    EXPECT_EQ(r.iterations, 3u);
    for (const auto& t : r.top) EXPECT_EQ(t.runs, 3u) << t.label;
    EXPECT_GT(r.work_ns, 0.0);
}

// The exact agreement contract: durations cross both writers as the same
// llround()ed integers and ratios as the same %.4f strings, so the JSON
// validator can compare text and JSON without tolerances.
TEST(CriticalPath, TextAndJsonRenderIdenticalNumbers) {
    const auto pr = run_profiled(6);
    const critical_path_report r =
        analyze_critical_path(*pr.drv->compiled(), 2);

    std::ostringstream text_os, json_os;
    write_critical_path_text(text_os, r);
    write_critical_path_json(json_os, r);
    const std::string text = text_os.str();
    const std::string json = json_os.str();

    const auto ns = [](double v) {
        return std::to_string(std::llround(v));
    };
    EXPECT_NE(text.find("iteration work:  " + ns(r.work_ns) + " ns"),
              std::string::npos);
    EXPECT_NE(json.find("\"work_ns\":" + ns(r.work_ns)), std::string::npos);
    EXPECT_NE(text.find("critical path:   " + ns(r.critical_path_ns)),
              std::string::npos);
    EXPECT_NE(json.find("\"critical_path_ns\":" + ns(r.critical_path_ns)),
              std::string::npos);

    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.4f", r.ideal_speedup);
    EXPECT_NE(text.find(std::string("ideal speedup:   ") + ratio + "x"),
              std::string::npos);
    EXPECT_NE(json.find(std::string("\"ideal_speedup\":") + ratio),
              std::string::npos);

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"critical_path_len\":" +
                        std::to_string(r.critical_path.size())),
              std::string::npos);
}

}  // namespace
