// Replay tests for the taskgraph driver's compiled iteration graph.
//
// The central property: N iterations executed by re-arming the compiled
// graph are BITWISE identical to N iterations of the serial reference
// driver.  Plus the compiled form checked against its table, the re-arm
// counting invariant, rebinding a replaced domain of the same shape, and
// the interplay with fault injection and the checkpoint chain: a replay
// killed mid-flight must leave the graph re-armable with fresh stop
// state, and the resilient loop must recover a faulted replay bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "amt/fault.hpp"
#include "core/access.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/resilient_run.hpp"
#include "lulesh/validate.hpp"

namespace {

using lulesh::domain;
using lulesh::options;
using lulesh::partition_sizes;

options opts(lulesh::index_t size, lulesh::index_t regions) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

std::string serialized(const domain& d) {
    std::ostringstream os;
    lulesh::save_checkpoint(d, os);
    return os.str();
}

std::unique_ptr<domain> evolve(const options& o, int iters,
                               std::size_t threads = 4,
                               partition_sizes parts = {64, 64}) {
    auto d = std::make_unique<domain>(o);
    amt::runtime rt(threads);
    lulesh::taskgraph_driver drv(rt, parts);
    const auto rr = lulesh::run_simulation(*d, drv, iters);
    EXPECT_EQ(rr.run_status, lulesh::status::ok);
    return d;
}

std::unique_ptr<domain> evolve_serial(const options& o, int iters) {
    auto d = std::make_unique<domain>(o);
    lulesh::serial_driver drv;
    const auto rr = lulesh::run_simulation(*d, drv, iters);
    EXPECT_EQ(rr.run_status, lulesh::status::ok);
    return d;
}

struct fault_guard {
    ~fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
    }
};

// ---------------- equivalence ----------------

struct ReplayParam {
    lulesh::index_t size;
    lulesh::index_t regions;
};

class ReplayEquivalence : public ::testing::TestWithParam<ReplayParam> {};

TEST_P(ReplayEquivalence, ReplayBitwiseIdenticalToFreshBuild) {
    // The reference is the serial driver: the futures-built graph this
    // test used to compare against is gone, and the serial driver is what
    // every other equivalence suite anchors on.
    const auto& p = GetParam();
    const options o = opts(p.size, p.regions);
    constexpr int iters = 4;
    auto built = evolve_serial(o, iters);
    auto replayed = evolve(o, iters);
    EXPECT_EQ(lulesh::max_field_difference(*built, *replayed), 0.0);
    EXPECT_EQ(replayed->cycle, built->cycle);
    EXPECT_EQ(replayed->time_, built->time_);
    EXPECT_EQ(replayed->deltatime, built->deltatime);
    EXPECT_EQ(replayed->dtcourant, built->dtcourant);
    EXPECT_EQ(replayed->dthydro, built->dthydro);
    EXPECT_EQ(serialized(*replayed), serialized(*built));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRegions, ReplayEquivalence,
    ::testing::Values(ReplayParam{8, 1}, ReplayParam{8, 11},
                      ReplayParam{16, 1}, ReplayParam{16, 11},
                      ReplayParam{24, 1}, ReplayParam{24, 11}),
    [](const ::testing::TestParamInfo<ReplayParam>& pinfo) {
        return "s" + std::to_string(pinfo.param.size) + "_r" +
               std::to_string(pinfo.param.regions);
    });

TEST(ReplayEquivalence, OneIterationGraphIsRecompiledWhenShapeChanges) {
    // Same driver, two domains with different partitioning state: the
    // compiled graph must not be reused across a shape change.
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    domain d1(opts(8, 3));
    lulesh::run_simulation(d1, drv, 2);
    const auto* first = drv.compiled();
    ASSERT_NE(first, nullptr);

    domain d2(opts(10, 3));
    lulesh::run_simulation(d2, drv, 2);
    ASSERT_NE(drv.compiled(), nullptr);
    // The driver recompiled for d2 (fresh generation count, matching
    // domain) rather than replaying d1's graph.
    EXPECT_EQ(drv.compiled()->replays(), 2u);

    // Reference check: d2 evolved through the shape change matches a
    // domain evolved from scratch.
    auto fresh = evolve(opts(10, 3), 2, 2);
    EXPECT_EQ(serialized(d2), serialized(*fresh));
}

TEST(ReplayEquivalence, ReplayCountMatchesCyclesRun) {
    domain d(opts(8, 11));
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    const auto rr = lulesh::run_simulation(d, drv, 5);
    EXPECT_EQ(rr.run_status, lulesh::status::ok);
    ASSERT_NE(drv.compiled(), nullptr);
    EXPECT_EQ(drv.compiled()->replays(), 5u);
    // The re-arm invariant, end to end through the driver: every node —
    // tasks and barriers — executed exactly once per replay.
    const auto& g = drv.compiled()->graph();
    EXPECT_EQ(g.generation(), 5u);
    for (amt::static_graph::node_id id = 0; id < g.node_count(); ++id) {
        EXPECT_EQ(g.executions(id), g.generation())
            << "node " << id << " (" << g.node_label(id) << ")";
    }
}

// The compiled form after two replays, checked against the table it
// was compiled from: every task is a node of its stage and wave site, every
// declared edge is a graph edge, chain heads hang off the previous barrier
// (stage 0: graph roots), chain tails feed their stage's barrier, and the
// barriers chain B1 -> ... -> B5.
void expect_compiled_form_matches_table(const options& o,
                                        partition_sizes parts,
                                        std::size_t threads) {
    using lulesh::graph::compiled_iteration;
    using node_id = compiled_iteration::node_id;
    constexpr int cycles = 2;
    domain d(o);
    amt::runtime rt(threads);
    lulesh::taskgraph_driver drv(rt, parts);
    ASSERT_EQ(lulesh::run_simulation(d, drv, cycles).run_status,
              lulesh::status::ok);
    const compiled_iteration* ci = drv.compiled();
    ASSERT_NE(ci, nullptr);
    EXPECT_EQ(ci->replays(), static_cast<std::uint64_t>(cycles));

    const auto table = lulesh::graph::build_iteration_table(d, parts);
    const amt::static_graph& g = ci->graph();
    ASSERT_FALSE(table.tasks.empty());
    ASSERT_EQ(ci->task_count(), table.tasks.size());
    EXPECT_EQ(ci->slot_count(), table.num_slots);
    for (std::size_t b = 0; b + 1 < compiled_iteration::num_barriers; ++b) {
        EXPECT_TRUE(g.has_edge(ci->barrier_id(b), ci->barrier_id(b + 1)))
            << "missing barrier chain edge B" << b + 1 << " -> B" << b + 2;
    }
    std::vector<char> has_consumer(table.tasks.size(), 0);
    for (const auto& t : table.tasks) {
        for (int dep : t.deps) has_consumer[static_cast<std::size_t>(dep)] = 1;
    }
    for (std::size_t i = 0; i < table.tasks.size(); ++i) {
        const auto& t = table.tasks[i];
        SCOPED_TRACE(::testing::Message()
                     << "task " << i << " (" << t.site << " partition "
                     << t.partition << ")");
        const node_id id = ci->node_of(0, i);
        ASSERT_NE(id, compiled_iteration::no_node);
        // Table sites are dotted sub-sites of the node's wave-site label
        // ("region_eos.monoq" vs "region_eos").
        const char* label = g.node_label(id);
        EXPECT_EQ(std::strncmp(t.site, label, std::strlen(label)), 0)
            << "node label " << label;
        EXPECT_EQ(ci->node_stage(id), t.stage);
        for (int dep : t.deps) {
            EXPECT_TRUE(
                g.has_edge(ci->node_of(0, static_cast<std::size_t>(dep)), id))
                << "declared edge from task " << dep << " missing";
        }
        if (t.deps.empty()) {
            if (t.stage > 0) {
                EXPECT_TRUE(g.has_edge(
                    ci->barrier_id(static_cast<std::size_t>(t.stage - 1)), id))
                    << "chain head not gated on the previous barrier";
            } else {
                EXPECT_EQ(g.dependency_count(id), 0u)
                    << "stage-0 task is not a graph root";
            }
        }
        if (!has_consumer[i]) {
            EXPECT_TRUE(g.has_edge(
                id, ci->barrier_id(static_cast<std::size_t>(t.stage))))
                << "chain tail not joined into its stage barrier";
        }
    }
}

TEST(ReplayEquivalence, CompiledAuditPassesOnTheRearmedGraph) {
    // The structural audit of the re-armed graph: every table task, edge
    // and barrier present in the compiled form after two replays.
    expect_compiled_form_matches_table(opts(8, 11), {64, 64}, 4);
    expect_compiled_form_matches_table(opts(6, 1), {32, 32}, 2);
}

TEST(ReplayEquivalence, ReplacedDomainOfTheSameShapeIsRebound) {
    // The compiled graph is keyed by table shape and binds its domain when
    // armed: a domain re-emplaced in the same storage (same address, new
    // region lists) replays the same graph instead of running bodies
    // against the old domain's freed lists.
    const options o = opts(10, 11);
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {32, 32});
    std::optional<domain> d;
    d.emplace(o);
    ASSERT_EQ(lulesh::run_simulation(*d, drv, 2).run_status,
              lulesh::status::ok);
    d.emplace(o);
    ASSERT_EQ(lulesh::run_simulation(*d, drv, 4).run_status,
              lulesh::status::ok);
    ASSERT_NE(drv.compiled(), nullptr);
    EXPECT_EQ(drv.compiled()->replays(), 6u) << "the graph was recompiled";

    auto fresh = evolve(o, 4, 2, {32, 32});
    EXPECT_EQ(lulesh::max_field_difference(*d, *fresh), 0.0);
    EXPECT_EQ(serialized(*d), serialized(*fresh));
}

// ---------------- fault / cancel interplay ----------------

TEST(ReplayFault, RearmedTasksObserveFreshStopState) {
    fault_guard guard;
    domain d(opts(8, 5));
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, {64, 64});

    // Warm the compiled graph, then kill one replay mid-flight: the
    // injected fault requests stop, skips the remaining bodies of that
    // replay, and surfaces as task_fault.
    lulesh::run_simulation(d, drv, 3);
    amt::fault::plan p;
    p.site = "region_eos";
    p.epoch = 4;  // the first cycle of the continuation run below
    p.max_injections = 1;
    amt::fault::arm(p);
    const auto faulted = lulesh::run_simulation(d, drv, 6);
    amt::fault::disarm();
    EXPECT_EQ(faulted.run_status, lulesh::status::task_fault);
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);

    // The SAME driver (same compiled graph) keeps going: re-arming resets
    // the consumed stop state, so subsequent replays run all bodies again.
    ASSERT_NE(drv.compiled(), nullptr);
    const auto replays_before = drv.compiled()->replays();
    const auto resumed = lulesh::run_simulation(d, drv, 8);
    EXPECT_EQ(resumed.run_status, lulesh::status::ok);
    EXPECT_EQ(resumed.cycles, 8);
    EXPECT_GT(drv.compiled()->replays(), replays_before);
}

TEST(ReplayFault, FaultMidReplayRecoversBitwiseViaCheckpointChain) {
    fault_guard guard;
    const options o = opts(6, 5);

    // Clean baseline through the replay driver.
    auto clean = evolve(o, 20, 2, {32, 32});

    // Same run with a fault injected into cycle 6's EOS wave; the
    // resilient loop rolls back to the PR 5 checkpoint chain and retries.
    amt::fault::plan p;
    p.site = "region_eos";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain d(o);
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {32, 32});
    lulesh::resilience_options ropt;
    ropt.checkpoint_every = 2;
    const auto rr = lulesh::run_resilient(d, drv, ropt, 20);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.rollbacks, 1);
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
    EXPECT_EQ(lulesh::max_field_difference(*clean, d), 0.0);
    EXPECT_EQ(serialized(d), serialized(*clean));
}

TEST(ReplayFault, BuildAndReplayFaultReportsAgree) {
    // The fault surfaces with its site's cycle and status, so tooling
    // built on the reports can rely on them.
    fault_guard guard;
    amt::fault::plan p;
    p.site = "force";
    p.epoch = 2;
    p.max_injections = 1;
    amt::fault::arm(p);
    domain d(opts(8, 3));
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {64, 64});
    const auto rr = lulesh::run_simulation(d, drv, 5);
    amt::fault::disarm();
    EXPECT_EQ(rr.run_status, lulesh::status::task_fault);
    EXPECT_EQ(rr.cycles, 2);
    EXPECT_NE(rr.error_message.find("cycle 2"), std::string::npos);
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
}

}  // namespace
