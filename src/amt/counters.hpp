// amt/counters.hpp
//
// Per-worker task records, the analogue of HPX's /threads/idle-rate
// counter family that the paper uses for its Figure 11 utilization
// experiment.  Each worker owns one cache-line-padded `worker_counters`:
// event counts, the productive time of the tasks it ran, and the task it
// is running now (label and clock).  runtime::execute is the only writer
// of a record's task fields — one clock pair per task, booked once (see
// amt/scheduler.hpp) — and the runtime aggregates the records into
// snapshots on demand.

#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/config.hpp"

namespace amt {

/// Monotonic clock used for all runtime-internal timing.
using clock = std::chrono::steady_clock;

/// Single-writer event counter readable from other threads.  The owning
/// thread bumps it with add(); snapshot readers do a relaxed load and
/// tolerate slight staleness.  Because only one thread ever writes, add()
/// is a relaxed load/store pair rather than a fetch_add — a plain `add`
/// instruction on x86, no lock prefix — so the counters stay free even on
/// the task-execution fast path.
class relaxed_counter {
public:
    void add(std::uint64_t v) noexcept {
        value_.store(value_.load(amt::memory_order_relaxed) + v,
                     amt::memory_order_relaxed);
    }
    /// add() publishing with a release store: a reader whose
    /// load_acquire() sees the new value also sees every write the owner
    /// made before it (free on x86).
    void add_release(std::uint64_t v) noexcept {
        value_.store(value_.load(amt::memory_order_relaxed) + v,
                     model_weaken_release ? amt::memory_order_relaxed
                                          : amt::memory_order_release);
    }
    [[nodiscard]] std::uint64_t load() const noexcept {
        return value_.load(amt::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t load_acquire() const noexcept {
        return value_.load(amt::memory_order_acquire);
    }
    void reset() noexcept { value_.store(0, amt::memory_order_relaxed); }

#if AMT_MODEL_CHECK
    /// Model-litmus seam: demotes add_release() to a relaxed store
    /// (tests/model/test_model_counters.cpp must catch the result).
    static inline bool model_weaken_release = false;
#else
    static constexpr bool model_weaken_release = false;
#endif

private:
    amt::atomic<std::uint64_t> value_{0};
};

/// Multi-writer event counter: any thread may add().  Pays the lock-prefixed
/// fetch_add, so keep these off per-task fast paths — they exist for rare
/// events (retries, recoveries) recorded from whichever thread observes them.
class shared_counter {
public:
    void add(std::uint64_t v) noexcept {
        value_.fetch_add(v, amt::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t load() const noexcept {
        return value_.load(amt::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, amt::memory_order_relaxed); }

private:
    amt::atomic<std::uint64_t> value_{0};
};

/// Process-wide resilience event counters (fail-soft distributed runs —
/// see docs/resilience.md).  Any thread may bump any field: halo retries
/// and resends happen on workers, detector verdicts and recoveries on the
/// driver thread.  Reset between runs the way tests reset fault stats.
struct resilience_counters {
    shared_counter halo_crc_failures;  ///< corrupt halo messages detected
    shared_counter halo_retries;       ///< receiver-side retry rounds begun
    shared_counter halo_resends;       ///< messages re-delivered from cache
    shared_counter halo_drops;         ///< injected in-transit message drops
    shared_counter heartbeats;         ///< liveness stamps recorded
    shared_counter slab_deaths;        ///< detector verdicts naming a slab
    shared_counter recoveries;         ///< coordinated rollbacks performed
    shared_counter entry_fallbacks;    ///< rollbacks that fell back to the
                                       ///< global entry snapshot

    void reset() noexcept {
        halo_crc_failures.reset();
        halo_retries.reset();
        halo_resends.reset();
        halo_drops.reset();
        heartbeats.reset();
        slab_deaths.reset();
        recoveries.reset();
        entry_fallbacks.reset();
    }
};

/// The process-wide resilience counter block.
inline resilience_counters& resilience() {
    static resilience_counters c;
    return c;
}

/// The record of one worker thread.  Only that worker writes it;
/// snapshot readers load its counters without locking.
/// Padded to a cache line so records of different workers never share
/// one.
///
/// The task fields describe the innermost task the worker is running:
/// runtime::execute opens its clock (`task_start`, tasks_started + 1) and
/// closes it once — from the task itself through close_task_clock(), or
/// after the body returns — booking the interval into productive_ns and
/// publishing tasks_executed + 1 with release.  A task executed inside
/// another task's cooperative wait saves the outer task's fields and
/// restores them when it ends, so between tasks the record is closed and
/// unlabelled.
struct alignas(cache_line_size) worker_counters {
    relaxed_counter tasks_started;   ///< task clocks opened
    relaxed_counter tasks_executed;  ///< task clocks closed (add_release)
    relaxed_counter steals;          ///< successful steals from a victim
    relaxed_counter steal_attempts;  ///< victim probes, successful or not
    relaxed_counter productive_ns;   ///< closed task intervals, summed

    // Split of `steals` by victim locality domain (hierarchical stealing:
    // same-domain victims are probed first, cross-domain as fallback).
    relaxed_counter steals_same_domain;
    relaxed_counter steals_cross_domain;

    // The running task's label and clock, read by the owner only.  The
    // label is the task's first amt::annotate_task (the wave site and
    // partition of a graph node), nullptr until then.
    const char* label = nullptr;
    std::int32_t label_arg = -1;
    clock::time_point task_start{};
    clock::time_point task_end{};  ///< set when the clock closes
    bool open = false;             ///< the clock is running

    struct task_counts {
        std::uint64_t started = 0;
        std::uint64_t finished = 0;
    };
    /// Finished first (acquire), then started: every finish the first
    /// load sees was preceded by its start, so an observer never counts
    /// more finishes than starts.
    [[nodiscard]] task_counts counts() const noexcept {
        const std::uint64_t finished = tasks_executed.load_acquire();
        return {tasks_started.load(), finished};
    }

    void reset() noexcept {
        tasks_started.reset();
        tasks_executed.reset();
        steals.reset();
        steal_attempts.reset();
        productive_ns.reset();
        steals_same_domain.reset();
        steals_cross_domain.reset();
    }
};

/// Aggregated view over all workers at one instant.
struct counters_snapshot {
    std::uint64_t tasks_started = 0;
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    std::uint64_t productive_ns = 0;
    std::uint64_t steals_same_domain = 0;
    std::uint64_t steals_cross_domain = 0;
    std::uint64_t wall_ns = 0;   ///< wall time since runtime start / last reset
    std::size_t num_workers = 0;

    /// Fraction of total worker-seconds spent executing task bodies —
    /// the quantity plotted in the paper's Figure 11.
    [[nodiscard]] double productive_ratio() const {
        const double denom =
            static_cast<double>(wall_ns) * static_cast<double>(num_workers);
        return denom > 0.0 ? static_cast<double>(productive_ns) / denom : 0.0;
    }
};

/// Difference of two snapshots taken from the same runtime, for measuring a
/// window of execution (e.g. the timed region of a benchmark).
inline counters_snapshot delta(const counters_snapshot& begin,
                               const counters_snapshot& end) {
    counters_snapshot d;
    d.tasks_started = end.tasks_started - begin.tasks_started;
    d.tasks_executed = end.tasks_executed - begin.tasks_executed;
    d.steals = end.steals - begin.steals;
    d.steal_attempts = end.steal_attempts - begin.steal_attempts;
    d.productive_ns = end.productive_ns - begin.productive_ns;
    d.steals_same_domain = end.steals_same_domain - begin.steals_same_domain;
    d.steals_cross_domain = end.steals_cross_domain - begin.steals_cross_domain;
    d.wall_ns = end.wall_ns - begin.wall_ns;
    d.num_workers = end.num_workers;
    return d;
}

}  // namespace amt
