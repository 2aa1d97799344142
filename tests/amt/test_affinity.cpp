// Regression tests for homed posting (runtime::post_to, reached through
// amt::static_graph nodes that carry a home worker): a home is only a
// placement hint, so a busy home never strands a ready node, mail left at
// runtime destruction still runs, and a homed replay started from a
// non-worker thread never touches the injection queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "amt/metrics.hpp"
#include "amt/scheduler.hpp"
#include "amt/static_graph.hpp"

namespace {

using amt::static_graph;
using clock_type = std::chrono::steady_clock;

/// Spins (yielding) until `flag` is set or `limit` passes; false on timeout.
bool spin_until(const std::atomic<bool>& flag, std::chrono::seconds limit) {
    const auto until = clock_type::now() + limit;
    while (!flag.load()) {
        if (clock_type::now() >= until) return false;
        std::this_thread::yield();
    }
    return true;
}

TEST(HomedPosting, ReadyNodeOfABusyHomeRunsOnAnotherWorker) {
    amt::runtime rt(3);
    const std::size_t n = rt.num_workers();
    static_graph g;

    // The blocker holds whichever worker runs it until the rescue node
    // homed at that very worker has run.
    std::atomic<std::size_t> blocked_worker{n};
    std::atomic<bool> rescued{false};
    std::atomic<bool> blocker_timed_out{false};
    g.add_node(
        [&] {
            blocked_worker.store(amt::current_worker().index);
            if (!spin_until(rescued, std::chrono::seconds(20))) {
                blocker_timed_out.store(true);
            }
        },
        "blocker", 0, 0);

    // One rescue candidate homed at each worker, each gated by an external
    // dependency so the test posts it only once its home is stuck.
    std::atomic<std::size_t> rescuer{n};
    std::vector<static_graph::node_id> rescue(n);
    for (std::size_t w = 0; w < n; ++w) {
        rescue[w] = g.add_node(
            [&, w] {
                if (w == blocked_worker.load()) {
                    rescuer.store(amt::current_worker().index);
                    rescued.store(true);
                }
            },
            "rescue", static_cast<std::int32_t>(w),
            static_cast<std::uint32_t>(w));
    }
    g.seal();
    for (const auto id : rescue) g.set_external_deps(id, 1);
    g.arm(rt);
    g.start();

    while (blocked_worker.load() == n) std::this_thread::yield();
    const std::size_t home = blocked_worker.load();
    g.satisfy_external(rescue[home]);  // lands in the busy home's mailbox
    EXPECT_TRUE(spin_until(rescued, std::chrono::seconds(20)))
        << "the ready node stayed in its busy home's mailbox";
    for (std::size_t w = 0; w < n; ++w) {
        if (w != home) g.satisfy_external(rescue[w]);
    }
    g.wait();

    EXPECT_FALSE(blocker_timed_out.load());
    EXPECT_NE(rescuer.load(), home);
    EXPECT_LT(rescuer.load(), n);
    for (std::size_t id = 0; id < g.node_count(); ++id) {
        EXPECT_EQ(g.executions(static_cast<static_graph::node_id>(id)), 1u);
    }
}

TEST(HomedPosting, MailLeftAtRuntimeDestructionStillRuns) {
    static_graph g;
    std::atomic<int> busy{0};
    std::atomic<bool> go{false};
    std::atomic<bool> mail_ran{false};
    // Two blockers, one homed at each worker, keep both workers busy while
    // the mail node waits in a mailbox.
    for (std::uint32_t w = 0; w < 2; ++w) {
        g.add_node(
            [&] {
                busy.fetch_add(1);
                spin_until(go, std::chrono::seconds(20));
            },
            "blocker", static_cast<std::int32_t>(w), w);
    }
    const auto mail = g.add_node([&] { mail_ran.store(true); }, "mail", 0, 0);
    g.seal();
    g.set_external_deps(mail, 1);

    std::thread releaser;
    {
        amt::runtime rt(2);
        g.arm(rt);
        g.start();
        while (busy.load() < 2) std::this_thread::yield();
        g.satisfy_external(mail);  // both workers are stuck: it stays mail
        EXPECT_FALSE(mail_ran.load());
        releaser = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            go.store(true);
        });
        // ~runtime with the mail node still queued.
    }
    releaser.join();
    EXPECT_TRUE(mail_ran.load());
    g.wait();
    EXPECT_EQ(g.executions(mail), 1u);
}

TEST(HomedPosting, ReplayFromADriverThreadBypassesTheInjectionQueue) {
    amt::metrics::arm();
    auto& external = amt::metrics::get_counter("amt_tasks_posted_external");
    {
        amt::runtime rt(4);
        const auto workers = static_cast<std::uint32_t>(rt.num_workers());
        static_graph g;
        // Three waves of homed chunks joined by unhomed barriers, the shape
        // of a compiled iteration: the roots are posted from this thread,
        // everything else from workers.
        constexpr std::uint32_t width = 32;
        std::vector<std::atomic<int>> runs(3 * width + 3);
        static_graph::node_id prev_barrier = 0;
        for (std::uint32_t s = 0; s < 3; ++s) {
            const auto barrier = g.add_node(
                [&runs, s] { runs[3 * width + s].fetch_add(1); }, "barrier",
                static_cast<std::int32_t>(s));
            for (std::uint32_t i = 0; i < width; ++i) {
                const auto id = g.add_node(
                    [&runs, s, i] { runs[s * width + i].fetch_add(1); },
                    "chunk", static_cast<std::int32_t>(i),
                    i * workers / width);
                if (s > 0) g.add_edge(prev_barrier, id);
                g.add_edge(id, barrier);
            }
            prev_barrier = barrier;
        }
        g.seal();

        const std::uint64_t before = external.value();
        constexpr int replays = 20;
        for (int r = 0; r < replays; ++r) g.run(rt);
        EXPECT_EQ(external.value(), before)
            << "a homed root went through the injection queue";
        EXPECT_EQ(g.generation(), static_cast<std::uint64_t>(replays));
        for (std::size_t id = 0; id < g.node_count(); ++id) {
            EXPECT_EQ(g.executions(static_cast<static_graph::node_id>(id)),
                      g.generation());
        }
        for (const auto& r : runs) EXPECT_EQ(r.load(), replays);
    }
    amt::metrics::disarm();
}

}  // namespace
