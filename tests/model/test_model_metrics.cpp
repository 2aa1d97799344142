// Metrics-registry litmuses (amt/metrics.hpp).  The registry promises
// snapshot readers the relaxed_counter deal — staleness, never torn or
// invented values — and external threads the shared-shard (fetch_add)
// deal: concurrent updates survive every interleaving.  The checker
// explores the real counter/histogram code under the schedule
// controller and pins down exactly which cross-field guarantees collect()
// may and may not rely on.

#include <gtest/gtest.h>

#include "amt/metrics.hpp"
#include "amt/model.hpp"

namespace {

using amt::model::check;
using amt::model::model_assert;
using amt::model::options;
using amt::model::result;

namespace metrics = amt::metrics;

// Shared-shard counter updates from two external threads: shard 0 is
// fetch_add precisely so this interleaving set cannot lose an update.
TEST(ModelMetrics, SharedShardKeepsConcurrentExternalUpdates) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        metrics::arm();
        metrics::counter c;
        amt::model::thread other([&] { c.add(1); });
        c.add(1);
        other.join();
        model_assert(c.value() == 2, "shared shard lost an external update");
        metrics::disarm();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// Relaxed snapshot reads racing a writer: value() may be stale but must be
// monotone between consecutive reads and bounded by what was written.
TEST(ModelMetrics, SnapshotReadsAreMonotoneAndBounded) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        metrics::arm();
        metrics::counter c;
        amt::model::thread writer([&] {
            c.add(1);
            c.add(1);
        });
        const std::uint64_t first = c.value();
        const std::uint64_t second = c.value();
        writer.join();
        model_assert(second >= first, "snapshot ran backwards");
        model_assert(second <= 2, "snapshot saw a value never written");
        model_assert(c.value() == 2, "post-join total wrong");
        metrics::disarm();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

// Histogram snapshot skew: record() bumps the bucket before the sum, and a
// concurrent reader takes its two relaxed reads at different instants.
// Per-field monotonicity holds; cross-field consistency (sum == count * v
// mid-flight) deliberately does NOT, and collect() must keep tolerating
// that — the same contract trace.cpp's drain() documents for
// worker_counters.
TEST(ModelMetrics, HistogramCountAndSumAreOnlyPerFieldMonotone) {
    options o;
    o.quiet = true;
    o.max_executions = 60000;
    const result r = check(o, [] {
        metrics::arm();
        metrics::histogram h;
        amt::model::thread writer([&] {
            h.record(4);  // bucket 3, sum += 4
        });
        const std::uint64_t count1 = h.bucket_count(3);
        const std::uint64_t sum1 = h.sum();
        const std::uint64_t count2 = h.bucket_count(3);
        const std::uint64_t sum2 = h.sum();
        writer.join();
        model_assert(count2 >= count1 && sum2 >= sum1,
                     "per-field snapshot ran backwards");
        model_assert(count2 <= 1 && sum2 <= 4,
                     "snapshot saw samples never recorded");
        // Deliberately NOT asserting sum1 == count1 * 4: the reader may
        // observe the bucket bump before the sum add or vice versa.
        model_assert(h.bucket_count(3) == 1 && h.sum() == 4,
                     "post-join histogram totals wrong");
        metrics::disarm();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
}

// The arm flag races benignly with an in-flight update: the probe lands in
// either window, so the final value is 0 or 1 — never anything else, and
// never a crash.  This is the "safe to call at any time" clause of arm().
TEST(ModelMetrics, ArmingRacesWithUpdatesBenignly) {
    options o;
    o.quiet = true;
    const result r = check(o, [] {
        metrics::disarm();
        metrics::counter c;
        amt::model::thread toggler([&] { metrics::arm(); });
        c.add(1);
        toggler.join();
        const std::uint64_t v = c.value();
        model_assert(v <= 1, "racing update landed more than once");
        metrics::disarm();
    });
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

}  // namespace
