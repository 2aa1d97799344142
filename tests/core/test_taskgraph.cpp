// Tests specific to the task-graph driver: task counts, partition behaviour,
// barrier structure, counter integration, and robustness across repeated
// iterations and runtime configurations.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "amt/amt.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/validate.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::partition_sizes;

options small_opts(index_t size = 6, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

TEST(TaskGraph, ReportsName) {
    amt::runtime rt(1);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    EXPECT_EQ(drv.name(), "taskgraph");
}

TEST(TaskGraph, BarrierCountIsDocumented) {
    EXPECT_EQ(lulesh::taskgraph_driver::num_barriers, 4);
}

TEST(TaskGraph, TaskCountMatchesPartitioning) {
    const options o = small_opts(6, 1);  // single region simplifies counting
    domain d(o);
    amt::runtime rt(2);
    const partition_sizes parts{50, 40};
    lulesh::taskgraph_driver drv(rt, parts);
    lulesh::run_simulation(d, drv, 1);

    const index_t ne = d.numElem();  // 216
    const index_t nn = d.numNode();  // 343
    auto chunks = [](index_t n, index_t p) { return (n + p - 1) / p; };
    const std::size_t expected =
        // wave 1: stress + hourglass per nodal-partition chunk of elements
        2 * static_cast<std::size_t>(chunks(ne, parts.nodal)) +
        // wave 2: one gather + velpos task per node chunk
        static_cast<std::size_t>(chunks(nn, parts.nodal)) +
        // wave 3: one kinematics + volume-update task per element chunk
        static_cast<std::size_t>(chunks(ne, parts.elems)) +
        // wave 4: one monoq + EOS + constraints task per region chunk
        static_cast<std::size_t>(chunks(ne, parts.elems));
    EXPECT_EQ(drv.tasks_last_iteration(), expected);
}

TEST(TaskGraph, SmallerPartitionsMeanMoreTasks) {
    const options o = small_opts();
    amt::runtime rt(2);
    domain d1(o);
    lulesh::taskgraph_driver coarse(rt, {1024, 1024});
    lulesh::run_simulation(d1, coarse, 1);
    domain d2(o);
    lulesh::taskgraph_driver fine(rt, {16, 16});
    lulesh::run_simulation(d2, fine, 1);
    EXPECT_GT(fine.tasks_last_iteration(), 4 * coarse.tasks_last_iteration());
}

TEST(TaskGraph, RuntimeCountersSeeTheTasks) {
    const options o = small_opts();
    domain d(o);
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {32, 32});
    rt.reset_counters();
    lulesh::run_simulation(d, drv, 3);
    // Every created task must have been executed (plus stage spawners).
    // The last task bumps its counter just after fulfilling the future the
    // driver blocks on, so poll briefly instead of snapshotting once.
    const auto wanted = 3 * drv.tasks_last_iteration();
    auto counters = rt.snapshot_counters();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (counters.tasks_executed < wanted &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
        counters = rt.snapshot_counters();
    }
    EXPECT_GE(counters.tasks_executed, wanted);
    EXPECT_GT(counters.productive_ns, 0u);
}

TEST(TaskGraph, ManyIterationsRemainStable) {
    const options o = small_opts(5, 11);
    domain d(o);
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, {16, 16});
    const auto result = lulesh::run_simulation(d, drv, 60);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, 60);
    const auto rep = lulesh::check_energy_symmetry(d);
    EXPECT_LT(rep.max_rel_diff, 2e-11);  // reads 4.9e-13
}

TEST(TaskGraph, WorksWhenPartitionExceedsProblem) {
    const options o = small_opts(3, 2);
    domain d(o);
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {1 << 20, 1 << 20});
    const auto result = lulesh::run_simulation(d, drv, 10);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
}

TEST(TaskGraph, EmptyRegionsAreHandled) {
    // More regions than elements guarantees some regions are empty.
    options o = small_opts(2, 11);  // 8 elements, 11 regions
    domain d(o);
    int empty = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        if (d.regElemList(r).empty()) ++empty;
    }
    ASSERT_GT(empty, 0) << "test premise: some regions must be empty";
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {4, 4});
    const auto result = lulesh::run_simulation(d, drv, 10);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
}

TEST(TaskGraph, SurvivesRuntimeWithManyWorkers) {
    const options o = small_opts(4, 5);
    domain d(o);
    amt::runtime rt(8);  // heavy oversubscription on small hosts
    lulesh::taskgraph_driver drv(rt, {8, 8});
    const auto result = lulesh::run_simulation(d, drv, 15);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
}

TEST(TaskGraph, BackToBackDriversOnFreshRuntimes) {
    const options o = small_opts(4, 3);
    lulesh::run_result first;
    lulesh::run_result second;
    {
        domain d(o);
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {16, 16});
        first = lulesh::run_simulation(d, drv, 10);
    }
    {
        domain d(o);
        amt::runtime rt(3);
        lulesh::taskgraph_driver drv(rt, {16, 16});
        second = lulesh::run_simulation(d, drv, 10);
    }
    EXPECT_EQ(first.final_origin_energy, second.final_origin_energy);
}

TEST(TaskGraphProfile, AccumulatesPerPhaseTimes) {
    const options o = small_opts(6, 11);
    domain d(o);
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    lulesh::run_simulation(d, drv, 10);

    const auto& prof = drv.profile();
    EXPECT_EQ(prof.iterations, 10);
    EXPECT_GT(prof.total(), 0.0);
    double share_sum = 0.0;
    for (std::size_t p = 0; p < lulesh::phase_profile::num_phases; ++p) {
        const double s =
            prof.share(static_cast<lulesh::phase_profile::phase>(p));
        EXPECT_GE(s, 0.0) << lulesh::phase_profile::name(p);
        share_sum += s;
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    // The paper: the constraints step is negligible vs the Lagrange phases.
    EXPECT_LT(prof.share(lulesh::phase_profile::constraints),
              prof.share(lulesh::phase_profile::force));
}

TEST(TaskGraphProfile, ResetZeroes) {
    const options o = small_opts(4, 2);
    domain d(o);
    amt::runtime rt(1);
    lulesh::taskgraph_driver drv(rt, {32, 32});
    lulesh::run_simulation(d, drv, 3);
    EXPECT_EQ(drv.profile().iterations, 3);
    drv.reset_profile();
    EXPECT_EQ(drv.profile().iterations, 0);
    EXPECT_EQ(drv.profile().total(), 0.0);
}

TEST(Foreach, ReportsName) {
    amt::runtime rt(1);
    lulesh::foreach_driver drv(rt);
    EXPECT_EQ(drv.name(), "foreach");
}

TEST(Foreach, MatchesTaskgraphResults) {
    const options o = small_opts(6, 11);
    lulesh::run_result a;
    lulesh::run_result b;
    domain da(o);
    domain db(o);
    {
        amt::runtime rt(2);
        lulesh::foreach_driver drv(rt);
        a = lulesh::run_simulation(da, drv, 20);
    }
    {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {32, 32});
        b = lulesh::run_simulation(db, drv, 20);
    }
    EXPECT_EQ(a.final_origin_energy, b.final_origin_energy);
    EXPECT_EQ(lulesh::max_field_difference(da, db), 0.0);
}

}  // namespace
