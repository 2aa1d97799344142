// tests/amt/test_metrics.cpp — the quantitative metrics plane
// (amt/metrics.hpp): registration, arming, sharded counter/histogram
// arithmetic, snapshot aggregation across worker shards while workers are
// still writing, and the JSON / Prometheus exporters.  The relaxed-read
// ordering contract itself is pinned down by the model litmus
// (tests/model/test_model_metrics.cpp); these tests exercise the real
// scheduler.

#include "amt/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amt/async.hpp"
#include "amt/future.hpp"
#include "amt/scheduler.hpp"

namespace {

namespace metrics = amt::metrics;

/// Arms for the test body, restores the disarmed default on exit so tests
/// stay order-independent.
struct armed_scope {
    armed_scope() { metrics::arm(); }
    ~armed_scope() { metrics::disarm(); }
};

const metrics::counter_value* find_counter(const metrics::snapshot& s,
                                           const char* name) {
    for (const auto& c : s.counters) {
        if (std::strcmp(c.name, name) == 0) return &c;
    }
    return nullptr;
}

const metrics::histogram_value* find_histogram(const metrics::snapshot& s,
                                               const char* name) {
    for (const auto& h : s.histograms) {
        if (std::strcmp(h.name, name) == 0) return &h;
    }
    return nullptr;
}

TEST(Metrics, DisarmedUpdatesAreDropped) {
    auto& c = metrics::get_counter("test_disarmed_total", "dropped when off");
    metrics::disarm();
    c.reset();
    c.add(7);
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, ArmedCounterAccumulatesAndResets) {
    auto& c = metrics::get_counter("test_armed_total");
    armed_scope armed;
    c.reset();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GetInternsByNameAndChecksKind) {
    auto& a = metrics::get_counter("test_interned_total");
    auto& b = metrics::get_counter("test_interned_total");
    EXPECT_EQ(&a, &b);
    EXPECT_THROW(metrics::get_histogram("test_interned_total"),
                 std::logic_error);
}

TEST(Metrics, HistogramBucketsFollowBitWidth) {
    auto& h = metrics::get_histogram("test_bitwidth_ns");
    armed_scope armed;
    h.reset();
    h.record(0);     // bucket 0
    h.record(1);     // bucket 1: [1, 2)
    h.record(2);     // bucket 2: [2, 4)
    h.record(3);     // bucket 2
    h.record(1024);  // bucket 11: [1024, 2048)
    const auto snap = metrics::collect();
    const auto* hv = find_histogram(snap, "test_bitwidth_ns");
    ASSERT_NE(hv, nullptr);
    EXPECT_EQ(hv->count, 5u);
    EXPECT_EQ(hv->sum, 1030u);
    ASSERT_EQ(hv->buckets.size(), metrics::num_buckets);
    EXPECT_EQ(hv->buckets[0], 1u);
    EXPECT_EQ(hv->buckets[1], 1u);
    EXPECT_EQ(hv->buckets[2], 2u);
    EXPECT_EQ(hv->buckets[11], 1u);
    EXPECT_DOUBLE_EQ(hv->mean(), 1030.0 / 5.0);
    // Everything fits under the bucket-11 upper bound; the bottom of the
    // distribution sits in buckets 0-2.
    EXPECT_EQ(hv->quantile_bound(1.0), (1u << 11) - 1u);
    EXPECT_LE(hv->quantile_bound(0.5), 3u);
}

TEST(Metrics, ScopedTimerRecordsOneSample) {
    auto& h = metrics::get_histogram("test_scoped_ns");
    armed_scope armed;
    h.reset();
    {
        metrics::scoped_timer t(h);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto snap = metrics::collect();
    const auto* hv = find_histogram(snap, "test_scoped_ns");
    ASSERT_NE(hv, nullptr);
    EXPECT_EQ(hv->count, 1u);
    EXPECT_GE(hv->sum, 1'000'000u);  // slept >= 1ms
}

// Snapshot aggregation across worker shards: every worker updates its own
// single-writer shard, an external thread bumps the shared shard, and
// collect() must see the exact totals once the writers are quiescent.
TEST(Metrics, SnapshotAggregatesWorkerShards) {
    auto& c = metrics::get_counter("test_sharded_total");
    auto& h = metrics::get_histogram("test_sharded_ns");
    armed_scope armed;
    c.reset();
    h.reset();

    constexpr int tasks = 400;
    constexpr std::uint64_t per_task_value = 3;
    {
        amt::runtime rt(4);
        std::vector<amt::future<void>> done;
        done.reserve(tasks);
        for (int i = 0; i < tasks; ++i) {
            done.push_back(amt::async([&c, &h] {
                c.add(1);
                h.record(per_task_value);
            }));
        }
        for (auto& f : done) f.get();
    }
    c.add(1);              // external thread -> shared shard 0
    h.record(per_task_value);

    const auto snap = metrics::collect();
    const auto* cv = find_counter(snap, "test_sharded_total");
    ASSERT_NE(cv, nullptr);
    EXPECT_EQ(cv->value, static_cast<std::uint64_t>(tasks) + 1);
    const auto* hv = find_histogram(snap, "test_sharded_ns");
    ASSERT_NE(hv, nullptr);
    EXPECT_EQ(hv->count, static_cast<std::uint64_t>(tasks) + 1);
    EXPECT_EQ(hv->sum, (static_cast<std::uint64_t>(tasks) + 1) * per_task_value);
    EXPECT_EQ(hv->buckets[2], hv->count);  // 3 -> bucket 2, every sample
}

// Histogram merge under concurrent single-writer updates: snapshots taken
// while workers are still recording must be stale-but-sane — per-metric
// counts monotonically non-decreasing between consecutive collects, never
// exceeding what was actually written, and the final post-join snapshot
// exact.
TEST(Metrics, ConcurrentSnapshotsAreMonotoneAndBounded) {
    auto& h = metrics::get_histogram("test_concurrent_ns");
    armed_scope armed;
    h.reset();

    constexpr int tasks = 64;
    constexpr int records_per_task = 200;
    std::atomic<bool> stop_reader{false};
    std::uint64_t last_count = 0;
    bool monotone = true;
    bool bounded = true;

    std::thread reader([&] {
        while (!stop_reader.load(std::memory_order_relaxed)) {
            const auto snap = metrics::collect();
            const auto* hv = find_histogram(snap, "test_concurrent_ns");
            if (hv == nullptr) continue;
            if (hv->count < last_count) monotone = false;
            if (hv->count >
                static_cast<std::uint64_t>(tasks) * records_per_task) {
                bounded = false;
            }
            last_count = hv->count;
        }
    });
    {
        amt::runtime rt(4);
        std::vector<amt::future<void>> done;
        done.reserve(tasks);
        for (int i = 0; i < tasks; ++i) {
            done.push_back(amt::async([&h] {
                for (int j = 0; j < records_per_task; ++j) {
                    h.record(static_cast<std::uint64_t>(j));
                }
            }));
        }
        for (auto& f : done) f.get();
    }
    stop_reader.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_TRUE(monotone) << "histogram count went backwards mid-run";
    EXPECT_TRUE(bounded) << "histogram count exceeded the written total";
    const auto snap = metrics::collect();
    const auto* hv = find_histogram(snap, "test_concurrent_ns");
    ASSERT_NE(hv, nullptr);
    EXPECT_EQ(hv->count,
              static_cast<std::uint64_t>(tasks) * records_per_task);
}

TEST(Metrics, SchedulerProbesFeedTheRegistryWhenArmed) {
    armed_scope armed;
    metrics::reset();
    {
        amt::runtime rt(2);
        std::vector<amt::future<void>> done;
        for (int i = 0; i < 100; ++i) {
            done.push_back(amt::async([] {}));
        }
        for (auto& f : done) f.get();
    }
    const auto snap = metrics::collect();
    const auto* hv = find_histogram(snap, "amt_task_duration_ns");
    ASSERT_NE(hv, nullptr);
    EXPECT_GE(hv->count, 100u);
}

TEST(Metrics, CollectBridgesResilienceCounters) {
    const auto snap = metrics::collect();
    EXPECT_NE(find_counter(snap, "amt_resilience_recoveries"), nullptr);
    EXPECT_NE(find_counter(snap, "amt_resilience_halo_retries"), nullptr);
}

TEST(Metrics, JsonExportIsWellFormedSingleLine) {
    auto& c = metrics::get_counter("test_json_total");
    armed_scope armed;
    c.reset();
    c.add(9);
    const auto snap = metrics::collect();
    std::ostringstream os;
    metrics::write_json(os, snap);
    const std::string doc = os.str();
    EXPECT_EQ(doc.find('\n'), std::string::npos);
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"test_json_total\""), std::string::npos);
    EXPECT_NE(doc.find("\"ts_ms\""), std::string::npos);
    EXPECT_NE(doc.find("\"uptime_ns\""), std::string::npos);
}

TEST(Metrics, PrometheusExportCarriesHelpTypeAndCumulativeBuckets) {
    auto& h = metrics::get_histogram("test_prom_ns", "prometheus check");
    armed_scope armed;
    h.reset();
    h.record(1);
    h.record(900);
    const auto snap = metrics::collect();
    std::ostringstream os;
    metrics::write_prometheus(os, snap);
    const std::string text = os.str();
    EXPECT_NE(text.find("# HELP test_prom_ns prometheus check"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_prom_ns histogram"), std::string::npos);
    EXPECT_NE(text.find("test_prom_ns_count 2"), std::string::npos);
    EXPECT_NE(text.find("test_prom_ns_sum 901"), std::string::npos);
    // The +Inf bucket is cumulative and must equal the count.
    EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
}

TEST(Metrics, EnabledTracksArmState) {
    metrics::disarm();
    EXPECT_FALSE(metrics::enabled());
    EXPECT_FALSE(metrics::armed());
    metrics::arm();
    EXPECT_TRUE(metrics::enabled());
    EXPECT_TRUE(metrics::armed());
    metrics::disarm();
    EXPECT_FALSE(metrics::enabled());
}

}  // namespace
