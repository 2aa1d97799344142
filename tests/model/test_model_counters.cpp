// Counter litmuses (amt/counters.hpp).  relaxed_counter documents a
// single-writer contract (add() is a relaxed load+store pair, not an RMW)
// and promises snapshot readers only staleness, never torn or time-warped
// values; shared_counter pays the fetch_add so any thread may bump it.
// The checker verifies both contracts and — by violating the single-writer
// rule on purpose — shows the lost-update that justifies shared_counter's
// existence.  The task record's publication (worker_counters: a task's
// start counted relaxed, its finish with add_release, read back by
// counts()) gets a litmus of its own and a weakened twin that demotes the
// release (relaxed_counter::model_weaken_release).

#include <gtest/gtest.h>

#include "amt/counters.hpp"
#include "amt/model.hpp"

namespace {

using amt::model::check;
using amt::model::model_assert;
using amt::model::options;
using amt::model::result;

// Single-writer relaxed_counter: a snapshot reader racing the owner sees
// monotonically non-decreasing values bounded by what was written —
// stale is fine, backwards or invented is not.
TEST(ModelCounters, SingleWriterSnapshotsAreMonotoneAndBounded) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        amt::relaxed_counter tasks;
        amt::model::thread owner([&] {
            tasks.add(1);
            tasks.add(1);
            tasks.add(1);
        });
        const std::uint64_t first = tasks.load();
        const std::uint64_t second = tasks.load();
        owner.join();
        model_assert(second >= first, "snapshot ran backwards");
        model_assert(second <= 3, "snapshot saw a value never written");
        model_assert(tasks.load() == 3,
                     "owner's adds lost despite single-writer discipline");
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// The documented hazard, demonstrated: two writers on a relaxed_counter
// lose updates (load+store pair is not atomic).  This is the interleaving
// the header's "single-writer" warning exists for.
TEST(ModelCounters, TwoWritersOnRelaxedCounterLoseUpdates) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        amt::relaxed_counter c;
        amt::model::thread intruder([&] { c.add(1); });
        c.add(1);
        intruder.join();
        model_assert(c.load() == 2,
                     "two-writer relaxed_counter kept both updates");
    });
    ASSERT_TRUE(r.failed)
        << "the model must find the lost-update interleaving";
    EXPECT_NE(r.reason.find("relaxed_counter"), std::string::npos) << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

// shared_counter under the same pressure: fetch_add makes both updates
// survive every interleaving.
TEST(ModelCounters, SharedCounterKeepsConcurrentUpdates) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        amt::shared_counter c;
        amt::model::thread a([&] { c.add(1); });
        amt::model::thread b([&] { c.add(1); });
        a.join();
        b.join();
        model_assert(c.load() == 2, "shared_counter lost an update");
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// Snapshot consistency across a worker_counters block: the aggregator
// reads steals then steal_attempts while the owner bumps attempts before
// successes (probe first, then count the win).  A snapshot may be stale
// but must never show more successes than attempts... UNLESS it reads the
// two relaxed fields in the wrong order — which relaxed loads permit and
// the real snapshot code tolerates by contract.  The litmus pins down the
// exact guarantee: per-field monotonicity, not cross-field consistency.
TEST(ModelCounters, CrossFieldSnapshotIsOnlyPerFieldMonotone) {
    options o;
    o.quiet = true;
    o.max_executions = 60000;
    const result r = check(o, [] {
        amt::worker_counters wc;
        amt::model::thread owner([&] {
            wc.steal_attempts.add(1);
            wc.steals.add(1);  // success recorded after its attempt
        });
        const std::uint64_t s1 = wc.steals.load();
        const std::uint64_t a1 = wc.steal_attempts.load();
        const std::uint64_t s2 = wc.steals.load();
        const std::uint64_t a2 = wc.steal_attempts.load();
        owner.join();
        model_assert(s2 >= s1 && a2 >= a1, "per-field snapshot ran backwards");
        // Deliberately NOT asserting s1 <= a1: with relaxed loads the
        // reader may see the success before the attempt, and drain() in
        // trace.cpp must keep tolerating that.
        model_assert(wc.steals.load() == 1 && wc.steal_attempts.load() == 1,
                     "post-join totals wrong");
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
}

/// Sets one model seam for a scope, restoring it even when the checked
/// body aborts mid-execution.
struct seam_guard {
    explicit seam_guard(bool& seam) : seam_(seam) { seam_ = true; }
    ~seam_guard() { seam_ = false; }
    seam_guard(const seam_guard&) = delete;
    seam_guard& operator=(const seam_guard&) = delete;

private:
    bool& seam_;
};

// The owner runs two tasks the way runtime::execute books them — the
// start counted when the clock opens, the finish published when it closes
// — while an observer (snapshot_counters, as the dist progress deadline
// calls it) reads the record with counts(): finished first, then started.
// It may see a stale pair, never more finishes than starts.
void task_record_body() {
    amt::worker_counters wc;
    amt::model::thread owner([&] {
        for (int i = 0; i < 2; ++i) {
            wc.tasks_started.add(1);
            wc.tasks_executed.add_release(1);
        }
    });
    const amt::worker_counters::task_counts first = wc.counts();
    const amt::worker_counters::task_counts second = wc.counts();
    owner.join();
    model_assert(first.finished <= first.started &&
                     second.finished <= second.started,
                 "task record: observer saw more finishes than starts");
    const amt::worker_counters::task_counts last = wc.counts();
    model_assert(last.started == 2 && last.finished == 2,
                 "task record: post-join totals wrong");
}

TEST(ModelCounters, TaskRecordNeverShowsMoreFinishesThanStarts) {
    options o;
    o.quiet = true;
    const result r = check(o, task_record_body);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// Weakened twin: with the finish published relaxed, the observer may read
// the newest finish and a stale start.
TEST(ModelCounters, RelaxedFinishPublicationIsCaught) {
    seam_guard weaken(amt::relaxed_counter::model_weaken_release);
    options o;
    o.quiet = true;
    const result r = check(o, task_record_body);
    ASSERT_TRUE(r.failed) << "the model must find the stale-start read";
    EXPECT_NE(r.reason.find("more finishes than starts"), std::string::npos)
        << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

}  // namespace
