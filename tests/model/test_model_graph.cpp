// static_graph arm/replay dependency-count handoff litmuses.  The engine
// (amt/static_graph.cpp) hangs its whole replay design on three orderings:
//
//   * successor handoff — predecessors finish, each does
//     remaining.fetch_sub(1, acq_rel); whoever hits 1 posts the node and
//     must observe every predecessor's writes;
//   * completion at sinks — only nodes without successors decrement
//     pending_ (acq_rel); the last one ends the replay, and the waiter
//     must see every node's writes, carried to that sink along the
//     acq_rel edge decrements;
//   * re-arm publication — arm() rewrites every node's remaining with
//     relaxed stores and publishes them with one release store to
//     pending_, paired with the sinks' acq_rel decrements.
//
// These litmuses mirror exactly those protocols on the shim types the
// engine itself uses, then break each ordering to prove the checker sees
// why the comments in static_graph.cpp say what they say.

#include <gtest/gtest.h>

#include <cstdint>

#include "amt/atomic.hpp"
#include "amt/model.hpp"

namespace {

using amt::model::check;
using amt::model::model_assert;
using amt::model::options;
using amt::model::result;

// Two predecessors, one successor with remaining=2.  Each predecessor
// writes its output (relaxed, like task bodies writing mesh fields) then
// decrements.  Exactly one decrementer observes 1, and that winner must
// see BOTH outputs — the acq_rel pairing on `remaining` is what carries
// the sibling predecessor's writes.
result run_handoff(amt::memory_order dec_mo, const options& o) {
    return check(o, [=] {
        amt::atomic<int> out_a{0};
        amt::atomic<int> out_b{0};
        amt::atomic<int> remaining{2};
        int posted = 0;
        auto finish = [&](amt::atomic<int>& my_out) {
            my_out.store(1, amt::memory_order_relaxed);
            if (remaining.fetch_sub(1, dec_mo) == 1) {
                // Successor "runs here": dependency handoff must make
                // every predecessor's output visible.
                model_assert(out_a.load(amt::memory_order_relaxed) == 1 &&
                                 out_b.load(amt::memory_order_relaxed) == 1,
                             "handoff: successor ran before a predecessor's "
                             "writes were visible");
                ++posted;
            }
        };
        amt::model::thread worker([&] { finish(out_a); });
        finish(out_b);
        worker.join();
        model_assert(posted == 1, "handoff: node posted zero or two times");
    });
}

TEST(ModelGraph, AcqRelHandoffPostsOnceWithAllWritesVisible) {
    options o;
    o.quiet = true;
    const result r = run_handoff(amt::memory_order_acq_rel, o);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

TEST(ModelGraph, RelaxedHandoffLeaksStalePredecessorWrites) {
    options o;
    o.quiet = true;
    const result r = run_handoff(amt::memory_order_relaxed, o);
    ASSERT_TRUE(r.failed)
        << "relaxed decrements must allow a stale predecessor read";
    EXPECT_NE(r.reason.find("handoff"), std::string::npos) << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

// Completion counted at sinks: X and Y are non-sink nodes, each writing
// its output and then releasing the one sink with an edge decrement; the
// sink — run by whichever predecessor released it last — is the only
// node that decrements pending_, and on reaching zero it publishes the
// end of the replay (finish_graph's gate, a release/acquire pair here).
// A waiter that sees the replay done must see BOTH outputs, although no
// non-sink node ever touched pending_: the sibling's write reaches the
// sink only through the edge decrements.
result run_sink_completion(amt::memory_order edge_mo, const options& o) {
    return check(o, [=] {
        amt::atomic<int> out_x{0};
        amt::atomic<int> out_y{0};
        amt::atomic<std::uint32_t> sink_remaining{2};
        amt::atomic<std::size_t> pending{1};  // one sink
        amt::atomic<bool> done{false};
        auto finish = [&](amt::atomic<int>& my_out) {
            my_out.store(1, amt::memory_order_relaxed);
            if (sink_remaining.fetch_sub(1, edge_mo) == 1) {
                // The sink runs here; it has no successors, so it counts.
                if (pending.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
                    done.store(true, amt::memory_order_release);
                }
            }
        };
        amt::model::thread x([&] { finish(out_x); });
        amt::model::thread y([&] { finish(out_y); });
        if (done.load(amt::memory_order_acquire)) {
            model_assert(out_x.load(amt::memory_order_relaxed) == 1 &&
                             out_y.load(amt::memory_order_relaxed) == 1,
                         "sink completion: the waiter saw the replay done "
                         "before a non-sink node's write");
        }
        x.join();
        y.join();
        model_assert(pending.load(amt::memory_order_relaxed) == 0,
                     "sink completion: the sink never counted");
    });
}

TEST(ModelGraph, SinkCountedCompletionCarriesNonSinkWrites) {
    options o;
    o.quiet = true;
    const result r = run_sink_completion(amt::memory_order_acq_rel, o);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

TEST(ModelGraph, RelaxedEdgeDecrementHidesANonSinkWriteFromTheWaiter) {
    options o;
    o.quiet = true;
    const result r = run_sink_completion(amt::memory_order_relaxed, o);
    ASSERT_TRUE(r.failed)
        << "relaxed edge decrements must let the waiter miss a write";
    EXPECT_NE(r.reason.find("sink completion"), std::string::npos)
        << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

// arm()'s publication shape: relaxed per-node re-arm stores, one release
// store to pending_, a worker completes a sink with an acq_rel decrement
// and — on hitting zero — must observe the re-armed values, not last
// replay's.
result run_rearm(amt::memory_order publish_mo, const options& o) {
    return check(o, [=] {
        amt::atomic<int> node_remaining{0};  // "stale from last replay"
        amt::atomic<std::size_t> pending{0};
        bool worker_saw_rearm = false;
        amt::model::thread worker([&] {
            // Worker spins on the armed graph appearing (bounded: the
            // model explores both orders; 0 means arm not published yet).
            if (pending.load(amt::memory_order_acquire) == 1) {
                if (pending.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
                    worker_saw_rearm =
                        node_remaining.load(amt::memory_order_relaxed) == 7;
                }
            }
        });
        node_remaining.store(7, amt::memory_order_relaxed);  // re-arm write
        pending.store(1, publish_mo);                        // publication
        worker.join();
        // Only constraint: IF the worker consumed the publication, the
        // re-arm write must have been visible.
        model_assert(!(pending.load(amt::memory_order_relaxed) == 0 &&
                       !worker_saw_rearm),
                     "re-arm: worker consumed pending_ but saw last "
                     "replay's node state");
    });
}

TEST(ModelGraph, ReleasePublicationCarriesRearmWrites) {
    options o;
    o.quiet = true;
    const result r = run_rearm(amt::memory_order_release, o);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

TEST(ModelGraph, RelaxedPublicationIsCaught) {
    options o;
    o.quiet = true;
    const result r = run_rearm(amt::memory_order_relaxed, o);
    ASSERT_TRUE(r.failed)
        << "relaxed pending_ store must leak stale node state";
    EXPECT_NE(r.reason.find("re-arm"), std::string::npos) << r.reason;
}

// satisfy_external() racing the last in-graph predecessor.  arm() sets
// the gate's remaining count to its in-graph edge plus one armed external
// dependency before the receive chains exist.  Then a worker finishes the
// predecessor (on_complete's acq_rel decrement) while a NON-worker thread
// — a halo receive chain that just unpacked its ghost plane — calls
// satisfy_external (the same acq_rel decrement).  Whoever reaches zero
// posts the gate: exactly once, and the gate must see both the
// predecessor's output and the unpacked ghosts.
result run_external_handoff(amt::memory_order external_mo,
                            const options& o) {
    return check(o, [=] {
        amt::atomic<int> wave_out{0};
        amt::atomic<int> ghost{0};
        amt::atomic<std::uint32_t> remaining{2};  // arm(): 1 edge + 1
        amt::atomic<int> posted{0};
        auto post_gate = [&] {
            model_assert(wave_out.load(amt::memory_order_relaxed) == 1 &&
                             ghost.load(amt::memory_order_relaxed) == 1,
                         "external handoff: gate ran before both sides' "
                         "writes were visible");
            posted.fetch_add(1, amt::memory_order_relaxed);
        };
        amt::model::thread receiver([&] {
            ghost.store(1, amt::memory_order_relaxed);  // unpack
            if (remaining.fetch_sub(1, external_mo) == 1) post_gate();
        });
        // Worker: the predecessor's body, then on_complete.
        wave_out.store(1, amt::memory_order_relaxed);
        if (remaining.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
            post_gate();
        }
        receiver.join();
        model_assert(posted.load(amt::memory_order_relaxed) == 1,
                     "external handoff: gate posted zero or two times");
    });
}

TEST(ModelGraph, ExternalSatisfyRacingLastPredecessorPostsOnce) {
    options o;
    o.quiet = true;
    const result r = run_external_handoff(amt::memory_order_acq_rel, o);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

TEST(ModelGraph, RelaxedExternalSatisfyHidesTheGhostWrites) {
    options o;
    o.quiet = true;
    const result r = run_external_handoff(amt::memory_order_relaxed, o);
    ASSERT_TRUE(r.failed)
        << "a relaxed satisfy_external must let the gate miss the ghosts";
    EXPECT_NE(r.reason.find("external handoff"), std::string::npos)
        << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

// The error path: fail() stores stop_ with release before the next
// node's execute() acquires it.  If a body observes stop_ set, the first
// error must already be visible (mirrored here with a relaxed error word
// standing in for the err_mu_-guarded exception slot).
TEST(ModelGraph, StopFlagReleaseAcquirePairsWithErrorRecord) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        amt::atomic<int> error_word{0};
        amt::atomic<bool> stop{false};
        amt::model::thread failing([&] {
            error_word.store(42, amt::memory_order_relaxed);
            stop.store(true, amt::memory_order_release);
        });
        if (stop.load(amt::memory_order_acquire)) {
            model_assert(error_word.load(amt::memory_order_relaxed) == 42,
                         "stop observed before its error was recorded");
        }
        failing.join();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

}  // namespace
