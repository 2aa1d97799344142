// Tests for amt::static_graph: topology introspection, execution ordering,
// replay re-arming, error/stop semantics, and external dependency gating.

#include "amt/static_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "amt/channel.hpp"
#include "amt/scheduler.hpp"

namespace {

TEST(StaticGraph, TopologyIntrospection) {
    amt::static_graph g;
    const auto a = g.add_node([] {}, "a", 0);
    const auto b = g.add_node([] {}, "b", 1);
    const auto c = g.add_node([] {}, "c", 2);
    const auto d = g.add_node([] {}, "d", 3);
    g.add_edge(a, b);
    g.add_edge(a, c);
    g.add_edge(b, d);
    g.add_edge(c, d);
    EXPECT_FALSE(g.sealed());
    g.seal();
    EXPECT_TRUE(g.sealed());
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.dependency_count(a), 0u);
    EXPECT_EQ(g.dependency_count(b), 1u);
    EXPECT_EQ(g.dependency_count(d), 2u);
    EXPECT_TRUE(g.has_edge(a, b));
    EXPECT_TRUE(g.has_edge(c, d));
    EXPECT_FALSE(g.has_edge(b, c));
    EXPECT_FALSE(g.has_edge(d, a));
    EXPECT_EQ(g.successors(a).size(), 2u);
    EXPECT_EQ(g.successors(d).size(), 0u);
    EXPECT_STREQ(g.node_label(b), "b");
    EXPECT_EQ(g.node_arg(c), 2);
}

TEST(StaticGraph, DiamondRespectsDependencyOrder) {
    amt::runtime rt(4);
    amt::static_graph g;
    std::atomic<int> tick{0};
    int ta = 0, tb = 0, tc = 0, td = 0;
    const auto a = g.add_node([&] { ta = ++tick; });
    const auto b = g.add_node([&] { tb = ++tick; });
    const auto c = g.add_node([&] { tc = ++tick; });
    const auto d = g.add_node([&] { td = ++tick; });
    g.add_edge(a, b);
    g.add_edge(a, c);
    g.add_edge(b, d);
    g.add_edge(c, d);
    g.seal();
    g.run(rt);
    EXPECT_LT(ta, tb);
    EXPECT_LT(ta, tc);
    EXPECT_LT(tb, td);
    EXPECT_LT(tc, td);
    EXPECT_EQ(td, 4);
}

TEST(StaticGraph, ReplayReExecutesEveryNodeEachGeneration) {
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> runs{0};
    std::vector<amt::static_graph::node_id> ids;
    for (int i = 0; i < 16; ++i) {
        ids.push_back(g.add_node([&runs] { runs.fetch_add(1); }));
    }
    // A little structure so re-arming exercises non-root nodes too.
    for (int i = 1; i < 16; ++i) {
        g.add_edge(ids[static_cast<std::size_t>(i - 1)],
                   ids[static_cast<std::size_t>(i)]);
    }
    g.seal();
    constexpr int replays = 5;
    for (int r = 0; r < replays; ++r) g.run(rt);
    EXPECT_EQ(runs.load(), 16 * replays);
    EXPECT_EQ(g.generation(), static_cast<std::uint64_t>(replays));
    for (const auto id : ids) {
        EXPECT_EQ(g.executions(id), static_cast<std::uint64_t>(replays));
    }
}

TEST(StaticGraph, BodyExceptionPropagatesSkipsSuccessorsAndRearmsClean) {
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> gen{0};
    std::atomic<int> tail_runs{0};
    const auto head = g.add_node([&gen] { gen.fetch_add(1); });
    const auto mid = g.add_node([&gen] {
        if (gen.load() == 2) throw std::runtime_error("boom");
    });
    const auto tail = g.add_node([&tail_runs] { tail_runs.fetch_add(1); });
    g.add_edge(head, mid);
    g.add_edge(mid, tail);
    g.seal();

    g.run(rt);  // generation 1: clean
    EXPECT_EQ(tail_runs.load(), 1);
    EXPECT_THROW(g.run(rt), std::runtime_error);  // generation 2: mid throws
    // The graph drained fully (wait returned) but tail's body was skipped.
    EXPECT_EQ(tail_runs.load(), 1);
    EXPECT_TRUE(g.stop_requested());

    // Re-arm starts from fresh stop state: generation 3 runs everything.
    g.run(rt);
    EXPECT_FALSE(g.stop_requested());
    EXPECT_EQ(tail_runs.load(), 2);
    EXPECT_EQ(g.generation(), 3u);
    EXPECT_EQ(g.executions(head), 3u);
    EXPECT_EQ(g.executions(mid), 2u);   // the throwing run doesn't count
    EXPECT_EQ(g.executions(tail), 2u);  // the skipped run doesn't count
}

TEST(StaticGraph, RequestStopSkipsBodiesButCompletesTheReplay) {
    amt::runtime rt(1);
    amt::static_graph g;
    std::atomic<int> after{0};
    bool stopped_once = false;
    const auto a = g.add_node([&g, &stopped_once] {
        if (!stopped_once) {
            stopped_once = true;
            g.request_stop();
        }
    });
    const auto b = g.add_node([&after] { after.fetch_add(1); });
    g.add_edge(a, b);
    g.seal();
    g.run(rt);  // completes without throwing; b's body skipped
    EXPECT_EQ(after.load(), 0);
    g.run(rt);  // fresh stop state
    EXPECT_EQ(after.load(), 1);
}

TEST(StaticGraph, ExternalDependencyGatesARootPerReplay) {
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> ran{0};
    const auto root = g.add_node([&ran] { ran.fetch_add(1); });
    g.seal();

    g.set_external_deps(root, 1);
    g.arm(rt);
    g.start();
    // Without the external satisfy the node can never run.
    EXPECT_EQ(ran.load(), 0);
    g.satisfy_external(root);
    g.wait();
    EXPECT_EQ(ran.load(), 1);

    // Gating is consumed per-arm: the next replay runs ungated.
    g.run(rt);
    EXPECT_EQ(ran.load(), 2);
}

TEST(StaticGraph, ExternalDependencyGatesAnInnerBarrierNode) {
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> order{0};
    int t_pre = 0, t_gate = 0;
    const auto pre = g.add_node([&] { t_pre = ++order; });
    const auto gate = g.add_node([&] { t_gate = ++order; });
    g.add_edge(pre, gate);
    g.seal();
    g.set_external_deps(gate, 2);
    g.arm(rt);
    g.start();
    g.satisfy_external(gate);
    EXPECT_EQ(t_gate, 0);  // one of two externals still outstanding
    g.satisfy_external(gate);
    g.wait();
    EXPECT_GT(t_pre, 0);
    EXPECT_GT(t_gate, t_pre);
}

TEST(StaticGraph, WaitForTimesOutOnAPendingGateThenReportsTheDrain) {
    using std::chrono::milliseconds;
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> ran{0};
    const auto gate = g.add_node([&ran] { ran.fetch_add(1); });
    g.seal();
    g.set_external_deps(gate, 1);
    g.arm(rt);
    g.start();
    // Nothing can complete while the external dependency is outstanding:
    // the bounded wait returns false instead of blocking.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(g.wait_for(milliseconds(20)));
    EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(20));
    EXPECT_EQ(ran.load(), 0);
    g.satisfy_external(gate);
    EXPECT_TRUE(g.wait_for(milliseconds(10000)));
    g.wait();  // still closes the replay
    EXPECT_EQ(ran.load(), 1);
    // Re-armable afterwards; an ungated replay drains within the bound.
    g.arm(rt);
    g.start();
    EXPECT_TRUE(g.wait_for(milliseconds(10000)));
    g.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(StaticGraph, WaitForFromWorkerThreadRunsTasks) {
    amt::runtime rt(1);
    amt::static_graph g;
    std::atomic<int> runs{0};
    for (int i = 0; i < 8; ++i) g.add_node([&runs] { runs.fetch_add(1); });
    g.seal();
    std::atomic<bool> drained{false};
    rt.post_fn([&] {
        g.arm(rt);
        g.start();
        // The only worker must execute the graph's tasks while it waits.
        drained.store(g.wait_for(std::chrono::seconds(10)));
        g.wait();
    });
    while (runs.load() < 8 || !drained.load()) rt.try_run_one();
    EXPECT_TRUE(drained.load());
}

TEST(StaticGraph, ErrorHookClosesAFabricSoAPendingReceiveResolves) {
    // The dist driver's failure cascade in miniature: a body throws, the
    // error hook closes the channel, the receive pending on it resolves
    // with channel_closed, files its own failure against the gate it owes
    // and satisfies it — the replay drains instead of hanging.
    amt::runtime rt(2);
    amt::static_graph g;
    amt::channel<int> ch;
    std::atomic<int> hooked{0};
    std::atomic<int> gate_ran{0};
    const auto bad = g.add_node([] { throw std::runtime_error("slab 0"); });
    const auto gate = g.add_node([&gate_ran] { gate_ran.fetch_add(1); });
    std::vector<amt::static_graph::node_id> failed;
    std::mutex mu;
    g.set_error_hook([&](amt::static_graph::node_id id,
                         const std::exception_ptr&) {
        {
            std::lock_guard lk(mu);
            failed.push_back(id);
        }
        hooked.fetch_add(1);
        ch.close();
    });
    g.seal();
    g.set_external_deps(gate, 1);
    g.arm(rt);
    ch.get().then(amt::launch::sync, [&g, gate](amt::future<int>&& f) {
        try {
            (void)f.get();
        } catch (...) {
            g.fail(gate, std::current_exception());
        }
        g.satisfy_external(gate);
    });
    g.start();
    EXPECT_TRUE(g.wait_for(std::chrono::seconds(10)))
        << "the pending receive never resolved";
    EXPECT_THROW(g.wait(), std::runtime_error);  // the first error wins
    EXPECT_EQ(hooked.load(), 2);
    EXPECT_EQ(gate_ran.load(), 0) << "stopped replay must skip the gate";
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0], bad);
    EXPECT_EQ(failed[1], gate);
}

TEST(StaticGraph, EmptyGraphRunsTrivially) {
    amt::runtime rt(1);
    amt::static_graph g;
    g.seal();
    g.run(rt);
    g.run(rt);
    EXPECT_EQ(g.generation(), 2u);
}

TEST(StaticGraph, WaitFromWorkerThreadCooperates) {
    amt::runtime rt(1);
    amt::static_graph g;
    std::atomic<int> runs{0};
    for (int i = 0; i < 8; ++i) g.add_node([&runs] { runs.fetch_add(1); });
    g.seal();
    // run() called from inside a worker task: wait() must help execute
    // instead of deadlocking the only worker.
    std::atomic<bool> done{false};
    rt.post_fn([&] {
        g.run(rt);
        done.store(true);
    });
    while (!done.load()) rt.try_run_one();
    EXPECT_EQ(runs.load(), 8);
}

}  // namespace
