// amt/metrics.hpp
//
// The quantitative metrics plane: a process-wide registry of named
// counters and log2-bucket histograms, sharded per worker the same
// way counters.hpp shards its per-worker blocks — the queryable complement
// to the tracer's timelines (docs/observability.md).  Where a trace answers
// "what happened in this run, span by span", the registry answers "what is
// the task-duration distribution right now" cheaply enough to leave armed
// for a whole long run and scrape at an interval.
//
// Sharding and cost model, matching the relaxed_counter discipline:
//
//   * every metric owns max_shards cache-line-padded shards.  A runtime
//     worker updates shard (index + 1) with single-writer relaxed
//     load/store arithmetic — a plain `add` on x86, no lock prefix.
//     External threads (and workers beyond the shard table) share shard 0
//     via fetch_add; that shard is for rare events, never hot paths.
//   * disarmed (default): every update is one relaxed atomic load and a
//     predictable branch — bench/metrics_overhead holds the projected bill
//     under 1% of a task-graph iteration, the same bar the fault, hazard
//     and trace probes meet.
//   * armed: one or two relaxed stores per update; histogram recording
//     adds a bit-scan for the bucket.  Timed sites add the steady_clock
//     reads they need, priced by the <3% armed budget.
//
// Snapshots (collect()) read every shard relaxed and sum, exactly like
// runtime::snapshot_counters: slightly stale per shard, never torn per
// field, safe from any thread at any time (tests/model/test_model_metrics
// runs the litmus).  reset() is for quiescent points only.
//
// Naming convention (docs/observability.md): `<subsystem>_<what>_<unit>`,
// e.g. amt_task_duration_ns, dist_halo_rtt_ns.  Names must be string
// literals or otherwise outlive the process — the registry stores the
// pointer, the same contract as trace/fault site labels.
//
// Arming: metrics::arm() / disarm(), or the AMT_METRICS environment
// variable at process start (any value other than "" or "0"), mirroring
// AMT_TRACE / AMT_HAZARD_TRACK.

#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/config.hpp"
#include "amt/scheduler.hpp"

namespace amt::metrics {

/// Shard 0 is the shared (fetch_add) shard for external threads; workers
/// 0..max_shards-2 own shards 1..max_shards-1.
inline constexpr std::size_t max_shards = 33;

/// log2 histogram buckets: bucket k counts values v with bit_width(v) == k,
/// i.e. bucket 0 holds v == 0, bucket k holds [2^(k-1), 2^k).  48 buckets
/// cover nanosecond durations up to ~39 hours.
inline constexpr std::size_t num_buckets = 48;

namespace detail {

extern amt::atomic<bool> g_armed;

/// One cache-line-padded shard of a counter.
struct alignas(cache_line_size) value_shard {
    amt::atomic<std::uint64_t> v{0};
};

/// One histogram shard: per-bucket counts plus the value sum.  Buckets of
/// one shard may span cache lines, but shards never share one.
struct alignas(cache_line_size) hist_shard {
    amt::atomic<std::uint64_t> count[num_buckets]{};
    amt::atomic<std::uint64_t> sum{0};
};

/// Shard index for the calling thread: worker w -> w + 1 (single-writer),
/// anything else -> 0 (shared, fetch_add).
inline std::size_t shard_index() noexcept {
    const auto& wk = current_worker();
    if (wk.rt != nullptr && wk.index + 1 < max_shards) return wk.index + 1;
    return 0;
}

inline void shard_add(value_shard* shards, std::uint64_t v) noexcept {
    const std::size_t i = shard_index();
    if (i == 0) {
        shards[0].v.fetch_add(v, amt::memory_order_relaxed);
    } else {
        shards[i].v.store(shards[i].v.load(amt::memory_order_relaxed) + v,
                          amt::memory_order_relaxed);
    }
}

/// Bucket for a value: bit_width, clamped to the table.
inline std::size_t bucket_of(std::uint64_t v) noexcept {
    std::size_t b = 0;
    while (v != 0) {
        ++b;
        v >>= 1;
    }
    return b < num_buckets ? b : num_buckets - 1;
}

}  // namespace detail

/// True while the registry is armed.  The one check on a disarmed update.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_armed.load(amt::memory_order_relaxed);
}

/// Monotonic event counter.  add() is the disarmed-cheap probe; value()
/// sums the shards relaxed.
class counter {
public:
    void add(std::uint64_t v = 1) noexcept {
        if (enabled()) detail::shard_add(shards_, v);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < max_shards; ++i) {
            total += shards_[i].v.load(amt::memory_order_relaxed);
        }
        return total;
    }
    void reset() noexcept {
        for (std::size_t i = 0; i < max_shards; ++i) {
            shards_[i].v.store(0, amt::memory_order_relaxed);
        }
    }

private:
    detail::value_shard shards_[max_shards];
};

/// log2-bucket histogram of non-negative samples (durations in ns, depths,
/// byte counts).  record() is the armed-hot operation: one bucket bump plus
/// one sum add on the caller's shard.
class histogram {
public:
    void record(std::uint64_t v) noexcept {
        if (!enabled()) return;
        const std::size_t s = detail::shard_index();
        const std::size_t b = detail::bucket_of(v);
        auto& sh = shards_[s];
        if (s == 0) {
            sh.count[b].fetch_add(1, amt::memory_order_relaxed);
            sh.sum.fetch_add(v, amt::memory_order_relaxed);
        } else {
            sh.count[b].store(
                sh.count[b].load(amt::memory_order_relaxed) + 1,
                amt::memory_order_relaxed);
            sh.sum.store(sh.sum.load(amt::memory_order_relaxed) + v,
                         amt::memory_order_relaxed);
        }
    }
    void reset() noexcept {
        for (std::size_t i = 0; i < max_shards; ++i) {
            for (std::size_t b = 0; b < num_buckets; ++b) {
                shards_[i].count[b].store(0, amt::memory_order_relaxed);
            }
            shards_[i].sum.store(0, amt::memory_order_relaxed);
        }
    }
    /// Shard-summed relaxed reads, same staleness contract as counter::value.
    [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < max_shards; ++i) {
            total += shards_[i].count[b].load(amt::memory_order_relaxed);
        }
        return total;
    }
    [[nodiscard]] std::uint64_t sum() const noexcept {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < max_shards; ++i) {
            total += shards_[i].sum.load(amt::memory_order_relaxed);
        }
        return total;
    }

private:
    detail::hist_shard shards_[max_shards];
};

/// RAII sample: stamps steady_clock at construction, records the elapsed
/// nanoseconds at destruction.  Costs one relaxed load when disarmed.
class scoped_timer {
public:
    explicit scoped_timer(histogram& h) noexcept {
        if (enabled()) {
            h_ = &h;
            t0_ = std::chrono::steady_clock::now();
        }
    }
    scoped_timer(const scoped_timer&) = delete;
    scoped_timer& operator=(const scoped_timer&) = delete;
    ~scoped_timer() {
        if (h_ != nullptr) {
            h_->record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0_)
                    .count()));
        }
    }

private:
    histogram* h_ = nullptr;
    std::chrono::steady_clock::time_point t0_{};
};

// ---- registration --------------------------------------------------------

/// Interns a metric by name (registering on first use) and returns a
/// reference stable for the process lifetime.  Call sites cache it:
///
///     static auto& h = amt::metrics::get_histogram(
///         "amt_task_duration_ns", "task body execution time");
///     h.record(ns);
///
/// Re-registering an existing name with a different kind throws
/// std::logic_error.  `name`/`help` must outlive the process (string
/// literals).
counter& get_counter(const char* name, const char* help = "");
histogram& get_histogram(const char* name, const char* help = "");

// ---- arming --------------------------------------------------------------

/// Starts recording.  Also armed at process start by AMT_METRICS (any value
/// other than "" or "0").  Safe to call at any time; updates race with it
/// only benignly (an update may land in either window).
void arm();
void disarm();
[[nodiscard]] bool armed() noexcept;

/// Zeroes every registered metric.  Quiescent points only (concurrent
/// updates may be partially lost, exactly like runtime::reset_counters).
void reset();

// ---- snapshots and export ------------------------------------------------

struct counter_value {
    const char* name;
    const char* help;
    std::uint64_t value;
};

struct histogram_value {
    const char* name;
    const char* help;
    std::uint64_t count;
    std::uint64_t sum;
    std::vector<std::uint64_t> buckets;  ///< num_buckets entries

    [[nodiscard]] double mean() const {
        return count > 0 ? static_cast<double>(sum) /
                               static_cast<double>(count)
                         : 0.0;
    }
    /// Upper bound of the bucket holding quantile q (0 < q <= 1): the
    /// distribution's resolution is the log2 grid, so this is p99 to within
    /// a factor of 2 — enough to spot tail blowups between snapshots.
    [[nodiscard]] std::uint64_t quantile_bound(double q) const;
};

/// One aggregated view of every registered metric, stamped with wall and
/// uptime instants so consecutive reporter lines can be diffed.
struct snapshot {
    std::int64_t wall_ms = 0;    ///< system_clock, ms since the Unix epoch
    std::int64_t uptime_ns = 0;  ///< steady_clock since process registration
    std::vector<counter_value> counters;
    std::vector<histogram_value> histograms;
};

/// Reads every shard relaxed and aggregates.  Safe from any thread.  Also
/// folds in the process-wide amt::resilience() counter block (as
/// `amt_resilience_*` counters), so distributed recovery activity is
/// visible to scrapers without a second export path.
[[nodiscard]] snapshot collect();

/// One snapshot as a JSON object (single line, no trailing newline).
void write_json(std::ostream& os, const snapshot& s);

/// Prometheus text exposition format (# HELP / # TYPE / samples); log2
/// buckets become cumulative `le` buckets with power-of-two bounds.
void write_prometheus(std::ostream& os, const snapshot& s);

// ---- live reporter -------------------------------------------------------

/// Interval reporter for scraping during long runs: a background thread
/// that collects a snapshot every `interval` and writes it to `path` —
/// rewrite-in-place Prometheus text when the path ends in ".prom",
/// append-one-JSON-object-per-line otherwise.  A final snapshot is flushed
/// on stop()/destruction, so short runs still produce one record.  The
/// constructor arms the registry; stop() leaves it armed (the caller owns
/// disarm, mirroring the trace lifecycle).
class reporter {
public:
    struct options {
        std::string path;
        std::chrono::milliseconds interval{1000};
    };

    explicit reporter(options opts);
    reporter(const reporter&) = delete;
    reporter& operator=(const reporter&) = delete;
    ~reporter();

    /// Joins the thread and flushes the final snapshot.  Idempotent.
    /// Returns false if any write failed (also queryable via ok()).
    bool stop();
    [[nodiscard]] bool ok() const noexcept { return ok_; }
    [[nodiscard]] std::size_t snapshots_written() const noexcept {
        return written_;
    }

private:
    void run();
    bool write_once();

    options opts_;
    bool prometheus_ = false;
    bool ok_ = true;
    std::size_t written_ = 0;
    bool stopped_ = false;
    amt::mutex mu_;
    amt::condition_variable cv_;
    bool quit_ = false;
    std::thread thread_;
};

}  // namespace amt::metrics
