// tests/amt/test_trace.cpp — the task tracer: arming, task labels, ring
// overflow (drop-not-block), the Chrome trace writer, the per-phase
// utilization attribution, and the exact agreement of task spans with the
// runtime's counters and a compiled graph's node costs, which all come
// from runtime::execute's one clock pair.
//
// Each test resets the global registry; the fixture serializes them so a
// concurrent gtest shard cannot interleave ring registrations.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amt/amt.hpp"
#include "amt/json.hpp"
#include "amt/trace.hpp"

namespace {

namespace trace = amt::trace;

class TraceTest : public ::testing::Test {
protected:
    void SetUp() override {
        trace::reset();
        trace::set_ring_capacity(trace::default_ring_capacity);
    }
    void TearDown() override {
        trace::disarm();
        trace::reset();
    }
};

TEST_F(TraceTest, DisarmedRecordsNothing) {
    trace::emit_span(trace::event_kind::task_span, "t", 0, 100);
    trace::mark("m");
    trace::emit_phase("p", 0, 10);
    const auto snap = trace::drain();
    std::size_t events = 0;
    for (const auto& t : snap.threads) events += t.events.size();
    EXPECT_EQ(events, 0u);
}

TEST_F(TraceTest, ArmRecordsSpansWithMonotonicEpochTimestamps) {
    trace::set_thread_name("main");
    trace::arm();
    const std::int64_t a = trace::now_ns();
    trace::emit_span(trace::event_kind::task_span, "body", a,
                     trace::now_ns(), 7);
    trace::mark("cycle", 3);
    trace::disarm();
    const auto snap = trace::drain();
    ASSERT_EQ(snap.threads.size(), 1u);
    EXPECT_EQ(snap.threads[0].name, "main");
    ASSERT_EQ(snap.threads[0].events.size(), 2u);
    const auto& span = snap.threads[0].events[0];
    EXPECT_EQ(std::string(span.name), "body");
    EXPECT_EQ(span.arg, 7);
    EXPECT_GE(span.ts_ns, 0);
    EXPECT_GE(span.dur_ns, 0);
    const auto& m = snap.threads[0].events[1];
    EXPECT_EQ(m.kind, trace::event_kind::mark);
    EXPECT_GE(m.ts_ns, span.ts_ns);
}

/// Every task span recorded on a worker thread, in emission order.
std::vector<trace::event> worker_task_spans(const trace::trace_snapshot& snap) {
    std::vector<trace::event> spans;
    for (const auto& t : snap.threads) {
        if (t.name.rfind("worker", 0) != 0) continue;
        for (const auto& e : t.events) {
            if (e.kind == trace::event_kind::task_span) spans.push_back(e);
        }
    }
    return spans;
}

TEST_F(TraceTest, LabelHandshakeFirstAnnotationWins) {
    trace::arm();
    {
        amt::runtime rt(1);
        amt::async(rt, [] {
            amt::annotate_task("outer", 1);
            amt::annotate_task("inner", 2);  // inlined completion: must not win
        }).get();
        amt::async(rt, [] {}).get();
    }
    trace::disarm();
    bool outer = false;
    bool unlabelled = false;
    for (const auto& e : worker_task_spans(trace::drain())) {
        const std::string name(e.name);
        EXPECT_NE(name, "inner");
        if (name == "outer" && e.arg == 1) outer = true;
        // The label ends with its task: the next one starts unlabelled.
        if (name == "task" && e.arg == -1) unlabelled = true;
    }
    EXPECT_TRUE(outer);
    EXPECT_TRUE(unlabelled);
}

TEST_F(TraceTest, OverflowDropsKeepsFirstAndCounts) {
    trace::set_ring_capacity(4);
    trace::set_thread_name("main");
    trace::arm();
    for (int i = 0; i < 10; ++i) {
        trace::emit_span(trace::event_kind::task_span, "t",
                         static_cast<std::int64_t>(i) * 100,
                         static_cast<std::int64_t>(i) * 100 + 50, i);
    }
    const auto snap = trace::drain();
    ASSERT_EQ(snap.threads.size(), 1u);
    ASSERT_EQ(snap.threads[0].events.size(), 4u);  // keep-first semantics
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(snap.threads[0].events[static_cast<std::size_t>(i)].arg, i);
    }
    EXPECT_EQ(snap.threads[0].dropped, 6u);
    EXPECT_EQ(snap.dropped, 6u);
    EXPECT_EQ(trace::dropped_total(), 6u);
}

TEST_F(TraceTest, ScopedSpanEmitsOnlyWhenArmed) {
    {
        trace::scoped_span off(trace::event_kind::halo_span, "off");
    }
    trace::arm();
    {
        trace::scoped_span on(trace::event_kind::halo_span, "on", 5);
    }
    const auto snap = trace::drain();
    ASSERT_EQ(snap.threads.size(), 1u);
    ASSERT_EQ(snap.threads[0].events.size(), 1u);
    EXPECT_EQ(std::string(snap.threads[0].events[0].name), "on");
    EXPECT_EQ(snap.threads[0].events[0].kind, trace::event_kind::halo_span);
}

TEST_F(TraceTest, DrainOrdersMainWorkersPhases) {
    trace::arm();
    trace::emit_phase("force", 0, 10);
    std::thread w1([&] {
        trace::set_thread_name("worker1");
        trace::mark("w1");
    });
    w1.join();
    std::thread w0([&] {
        trace::set_thread_name("worker0");
        trace::mark("w0");
    });
    w0.join();
    trace::set_thread_name("main");
    trace::mark("m");
    const auto snap = trace::drain();
    ASSERT_EQ(snap.threads.size(), 4u);
    EXPECT_EQ(snap.threads[0].name, "main");
    EXPECT_EQ(snap.threads[1].name, "worker0");
    EXPECT_EQ(snap.threads[2].name, "worker1");
    EXPECT_EQ(snap.threads[3].name, "phases");
}

TEST_F(TraceTest, ChromeWriterProducesValidSkeleton) {
    trace::set_thread_name("main");
    trace::arm();
    trace::emit_span(trace::event_kind::task_span, "quote\"back\\slash", 1000,
                     2000, 1);
    trace::emit_phase("force", 0, 5000, 2);
    const auto snap = trace::drain();
    std::ostringstream os;
    trace::write_chrome_trace(os, snap);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    // Escaping of name characters that would break JSON.
    EXPECT_NE(out.find("quote\\\"back\\\\slash"), std::string::npos);
    // Span timestamps are microseconds: 1000 ns = 1.000 us.
    EXPECT_NE(out.find("\"ts\":1.000"), std::string::npos);
    EXPECT_NE(out.find("\"cat\":\"phase\""), std::string::npos);
}

TEST_F(TraceTest, UtilizationAttributesCategoriesPerPhase) {
    trace::arm();
    // Two phase windows of 1 ms each with a 0.5 ms serial hole between.
    trace::emit_phase("force", 0, 1'000'000);
    trace::emit_phase("node", 1'500'000, 1'000'000);
    std::thread worker([&] {
        trace::set_thread_name("worker0");
        // 0.6 ms productive + 0.4 ms search inside "force" (search ends at
        // the window end: barrier); fully idle through the serial hole and
        // "node" (gap crosses both: barrier tail attribution in each).
        trace::emit_span(trace::event_kind::task_span, "force", 0, 600'000,
                         0);
        trace::emit_span(trace::event_kind::search_span, "steal-search",
                         600'000, 1'000'000, 3);
        trace::emit_span(trace::event_kind::idle_span, "idle", 1'000'000,
                         2'500'000, 9);
        // Zero-duration steal event pinned inside the force window (instant()
        // would stamp real wall time, outside these synthetic windows).
        trace::emit_span(trace::event_kind::steal, "steal", 650'000, 650'000,
                         0);
    });
    worker.join();
    const auto snap = trace::drain();
    const auto rep = trace::build_utilization(snap);

    EXPECT_EQ(rep.workers, 1u);
    EXPECT_NEAR(rep.wall_s, 2.5e-3, 1e-9);
    ASSERT_EQ(rep.phases.size(), 3u);  // force, node, (serial) filler

    const auto* force = &rep.phases[0];
    const auto* node = &rep.phases[1];
    if (force->name != "force") std::swap(force, node);
    EXPECT_EQ(force->name, "force");
    EXPECT_NEAR(force->productive_s, 0.6e-3, 1e-9);
    // The search gap runs into the force window's closing barrier.
    EXPECT_NEAR(force->barrier_s, 0.4e-3, 1e-9);
    EXPECT_EQ(force->tasks, 1u);
    EXPECT_EQ(force->steals, 1u);
    EXPECT_NEAR(node->barrier_s, 1.0e-3, 1e-9);

    // Everything is attributed: coverage == 1 within fp noise.
    EXPECT_NEAR(rep.coverage(), 1.0, 1e-6);
    EXPECT_NEAR(rep.accounted_s(), 2.5e-3, 1e-9);
    EXPECT_EQ(rep.tasks, 1u);
    EXPECT_EQ(rep.steals, 1u);
}

TEST_F(TraceTest, UtilizationFallsBackToSingleRunWindow) {
    trace::arm();
    std::thread worker([&] {
        trace::set_thread_name("worker0");
        trace::emit_span(trace::event_kind::task_span, "t", 0, 1'000'000, 0);
    });
    worker.join();
    const auto snap = trace::drain();
    const auto rep = trace::build_utilization(snap);
    ASSERT_EQ(rep.phases.size(), 1u);
    EXPECT_EQ(rep.phases[0].name, "run");
    EXPECT_NEAR(rep.productive_s, 1e-3, 1e-9);
    EXPECT_NEAR(rep.utilization(), 1.0, 1e-6);
}

TEST_F(TraceTest, UtilizationWritersIncludeTotalsAndCsv) {
    trace::arm();
    trace::emit_phase("force", 0, 1'000'000);
    std::thread worker([&] {
        trace::set_thread_name("worker0");
        trace::emit_span(trace::event_kind::task_span, "force", 0, 1'000'000,
                         0);
    });
    worker.join();
    const auto rep = trace::build_utilization(trace::drain());
    std::ostringstream text;
    trace::write_utilization_text(text, rep);
    EXPECT_NE(text.str().find("CSV,util_phase,force"), std::string::npos);
    EXPECT_NE(text.str().find("coverage"), std::string::npos);
    std::ostringstream json;
    trace::write_utilization_json(json, rep);
    EXPECT_NE(json.str().find("\"phases\""), std::string::npos);
    EXPECT_NE(json.str().find("\"coverage\""), std::string::npos);
}

TEST_F(TraceTest, SchedulerEmitsLabeledTaskSpans) {
    trace::set_thread_name("test-main");
    trace::arm();
    {
        amt::runtime rt(2);
        auto f = amt::async(rt, [] {
            amt::annotate_task("unit-task", 42);
        });
        f.get();
    }
    trace::disarm();
    const auto snap = trace::drain();
    bool found = false;
    for (const auto& t : snap.threads) {
        for (const auto& e : t.events) {
            if (e.kind == trace::event_kind::task_span &&
                std::string(e.name) == "unit-task" && e.arg == 42) {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(TraceTest, ResetDropsEventsAndReopensRegistration) {
    trace::set_thread_name("main");
    trace::arm();
    trace::mark("before");
    trace::reset();
    EXPECT_EQ(trace::drain().threads.size(), 0u);
    // Re-arm starts a fresh epoch and re-registers this thread lazily.
    trace::arm();
    trace::mark("after");
    const auto snap = trace::drain();
    ASSERT_EQ(snap.threads.size(), 1u);
    ASSERT_EQ(snap.threads[0].events.size(), 1u);
    EXPECT_EQ(std::string(snap.threads[0].events[0].name), "after");
}

// The one-clock-pair contract: armed for the runtime's whole counter
// window with nothing dropped, the worker task spans of a 4-worker
// compiled-graph replay sum to the counters' productive time exactly,
// there is one span per executed task, and every node's booked cost is
// exactly the sum of its own spans.
TEST_F(TraceTest, TaskSpansAgreeExactlyWithCountersAndNodeCosts) {
    trace::arm();
    constexpr int layers = 8;
    constexpr int width = 8;
    constexpr int replays = 20;
    amt::runtime rt(4);
    amt::static_graph g;
    for (int i = 0; i < layers * width; ++i) {
        g.add_node(
            [] {
                volatile int x = 0;
                for (int k = 0; k < 2000; ++k) x = x + 1;
            },
            "exact", i, static_cast<std::uint32_t>(i % 4));
    }
    using node_id = amt::static_graph::node_id;
    for (int l = 1; l < layers; ++l) {
        for (int w = 0; w < width; ++w) {
            const auto to = static_cast<node_id>(l * width + w);
            g.add_edge(static_cast<node_id>((l - 1) * width + w), to);
            g.add_edge(static_cast<node_id>((l - 1) * width + (w + 1) % width),
                       to);
        }
    }
    g.seal();
    for (int r = 0; r < replays; ++r) g.run(rt);
    // wait() returns after every node closed its clock, so the window is
    // complete here.
    const amt::counters_snapshot c = rt.snapshot_counters();
    trace::disarm();
    const auto snap = trace::drain();
    ASSERT_EQ(snap.dropped, 0u);

    std::uint64_t span_ns = 0;
    std::map<std::int32_t, std::pair<std::uint64_t, std::uint64_t>> per_node;
    const auto spans = worker_task_spans(snap);
    for (const auto& e : spans) {
        ASSERT_EQ(std::string(e.name), "exact");
        span_ns += static_cast<std::uint64_t>(e.dur_ns);
        auto& node = per_node[e.arg];
        node.first += static_cast<std::uint64_t>(e.dur_ns);
        node.second += 1;
    }
    EXPECT_EQ(span_ns, c.productive_ns);
    EXPECT_EQ(spans.size(), c.tasks_executed);
    EXPECT_EQ(c.tasks_started, c.tasks_executed);
    EXPECT_EQ(c.tasks_executed,
              static_cast<std::uint64_t>(layers * width * replays));
    ASSERT_EQ(per_node.size(), g.node_count());
    for (node_id id = 0; id < g.node_count(); ++id) {
        const auto& node = per_node[static_cast<std::int32_t>(id)];
        EXPECT_EQ(node.first, g.node_time_ns(id)) << "node " << id;
        EXPECT_EQ(node.second, g.node_timed_runs(id)) << "node " << id;
        EXPECT_EQ(g.node_timed_runs(id), static_cast<std::uint64_t>(replays));
    }
}

// A worker task that runs a graph and waits on it cooperatively (the path
// StaticGraph.WaitFromWorkerThreadCooperates takes) runs every node nested
// inside itself.  Each node gets its own span inside the outer one, and
// after every node the outer task's label and start are back: its span,
// named when it closes, keeps its name and starts before the first node.
TEST_F(TraceTest, NestedTasksKeepTheOuterLabelAndStart) {
    trace::arm();
    {
        amt::runtime rt(1);
        amt::static_graph g;
        for (int i = 0; i < 8; ++i) {
            g.add_node(
                [] {
                    volatile int x = 0;
                    for (int k = 0; k < 1000; ++k) x = x + 1;
                },
                "inner", i);
        }
        g.seal();
        std::atomic<bool> done{false};
        rt.post_fn([&] {
            amt::annotate_task("outer", 99);
            g.run(rt);
            done.store(true);
        });
        while (!done.load()) std::this_thread::yield();
    }
    trace::disarm();

    const auto spans = worker_task_spans(trace::drain());
    ASSERT_EQ(spans.size(), 9u);
    const trace::event& outer = spans.back();  // closes after its nodes
    EXPECT_EQ(std::string(outer.name), "outer");
    EXPECT_EQ(outer.arg, 99);
    std::vector<bool> seen(8, false);
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
        const trace::event& inner = spans[i];
        EXPECT_EQ(std::string(inner.name), "inner");
        ASSERT_GE(inner.arg, 0);
        ASSERT_LT(inner.arg, 8);
        EXPECT_FALSE(seen[static_cast<std::size_t>(inner.arg)]);
        seen[static_cast<std::size_t>(inner.arg)] = true;
        EXPECT_GE(inner.ts_ns, outer.ts_ns);
        EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
    }
}

// The one escaper behind every JSON writer: the trace and utilization
// report, metrics snapshots, the critical-path report, bench artifacts.
TEST(JsonEscape, EscapesQuoteBackslashAndEveryControlByte) {
    EXPECT_EQ(amt::json_escape("worker3"), "worker3");
    EXPECT_EQ(amt::json_escape("a\"b\\c\nd\x01" "e"),
              "a\\\"b\\\\c\\u000ad\\u0001e");
}

}  // namespace
