// amt/trace.hpp
//
// Task-level tracing: per-thread, cache-line-padded, lock-free ring buffers
// of fixed-size trace events, stamped with amt::clock — the analogue of
// HPX's APEX/OTF2 task tracing, scoped to what the paper's Figure 11
// analysis actually needs.  Workers record task spans (runtime::execute
// emits them from its one clock pair, named by the executing worker's
// record — amt::annotate_task), successful steals, coalesced
// steal-search/idle gap spans and barrier waits; a writer drains every ring
// into Chrome trace-event JSON (loadable in Perfetto / chrome://tracing)
// and into a per-phase utilization report attributing productive / steal /
// idle / barrier time to each leapfrog phase.
//
// Cost model, matching the single-writer relaxed_counter discipline:
//
//   * disarmed (default): every probe is one relaxed atomic load and a
//     predictable branch — measured <1% on the task-graph iteration, see
//     bench/trace_overhead.
//   * armed: one steady_clock read per span endpoint plus a single-writer
//     ring push (no lock prefix, no allocation).  Ring overflow drops the
//     event and bumps a per-ring drop counter — recording never blocks.
//
// Arming: trace::arm() / trace::disarm(), or the AMT_TRACE environment
// variable at process start (any value other than "" or "0"), mirroring
// AMT_HAZARD_TRACK.  arm()/disarm() must not race with in-flight tasks of
// a running graph — quiesce first, exactly like fault::arm().
//
// Overflow semantics: rings keep the *first* capacity events (a
// deterministic prefix of the run) and count the rest in dropped(); the
// drop total is surfaced in the utilization report.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/config.hpp"
#include "amt/counters.hpp"

namespace amt::trace {

/// What a trace event records.  Spans carry a duration; steal and mark
/// are instants (duration 0).
enum class event_kind : std::uint8_t {
    task_span,     ///< one task execution (labelled via amt::annotate_task)
    halo_span,     ///< dist-driver pack/unpack, nested inside a task span
    barrier_span,  ///< a thread blocked in a barrier get()/wait
    search_span,   ///< deque empty: actively stealing (never parked)
    idle_span,     ///< deque empty: parked on the wakeup cv at least once
    phase_span,    ///< one leapfrog phase window (driver barrier stamps)
    checkpoint_span,  ///< checkpoint-pack work, nested inside a task span
    steal,         ///< successful steal from a victim deque
    mark,          ///< point annotation (cycle boundaries, recoveries)
};

/// Fixed-size trace record.  `name` must point to storage that outlives the
/// runtime (string literals / interned site labels — the same contract as
/// fault::probe sites).  Timestamps are nanoseconds relative to the trace
/// epoch established by arm().
struct event {
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;
    const char* name = nullptr;
    std::int32_t arg = -1;
    event_kind kind = event_kind::mark;
};

namespace detail {
extern amt::atomic<bool> g_armed;
void emit(event_kind kind, const char* name, std::int64_t ts_ns,
          std::int64_t dur_ns, std::int32_t arg) noexcept;
std::int64_t now_ns_slow() noexcept;
}  // namespace detail

/// True while tracing is armed.  The one check on every disarmed probe.
[[nodiscard]] inline bool enabled() noexcept {
    return detail::g_armed.load(amt::memory_order_relaxed);
}

/// Nanoseconds since the trace epoch (arm time).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return detail::now_ns_slow();
}

[[nodiscard]] std::int64_t to_ns(clock::time_point tp) noexcept;

/// Records a span on the calling thread's ring.  No-op when disarmed.
inline void emit_span(event_kind kind, const char* name, std::int64_t ts_ns,
                      std::int64_t end_ns, std::int32_t arg = -1) noexcept {
    if (enabled()) detail::emit(kind, name, ts_ns, end_ns - ts_ns, arg);
}
void emit_span(event_kind kind, const char* name, clock::time_point begin,
               clock::time_point end, std::int32_t arg = -1) noexcept;

/// Records an instant event (duration 0) on the calling thread's ring.
inline void instant(event_kind kind, const char* name,
                    std::int32_t arg = -1) noexcept {
    if (enabled()) detail::emit(kind, name, detail::now_ns_slow(), 0, arg);
}

/// RAII span: stamps begin at construction, emits at destruction.  Costs
/// one relaxed load when disarmed.
class scoped_span {
public:
    explicit scoped_span(event_kind kind, const char* name,
                         std::int32_t arg = -1) noexcept {
        if (enabled()) {
            kind_ = kind;
            name_ = name;
            arg_ = arg;
            t0_ = now_ns();
            active_ = true;
        }
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;
    ~scoped_span() {
        if (active_) emit_span(kind_, name_, t0_, now_ns(), arg_);
    }

private:
    std::int64_t t0_ = 0;
    const char* name_ = nullptr;
    std::int32_t arg_ = -1;
    event_kind kind_ = event_kind::mark;
    bool active_ = false;
};

/// Point annotation on the calling thread ("cycle", "halo:retry", ...).
inline void mark(const char* name, std::int32_t arg = -1) noexcept {
    instant(event_kind::mark, name, arg);
}

// ---- arming and ring management -----------------------------------------

/// Starts recording.  Establishes the trace epoch when the rings are empty
/// (so a reset() + arm() restarts time at zero).  Also armed at process
/// start by AMT_TRACE (any value other than "" or "0").
void arm();

/// Stops recording.  Already-recorded events stay drainable.
void disarm();
[[nodiscard]] bool armed() noexcept;

/// Drops every ring and event and re-opens thread registration.  Call at a
/// quiescent point only (no in-flight tasks).
void reset();

/// Events each per-thread ring can hold before dropping (keep-first
/// semantics).  Takes effect for rings created *after* the call; call
/// before arm().  The default (65536) holds several hundred reduced-run
/// iterations per worker.
void set_ring_capacity(std::size_t events);
inline constexpr std::size_t default_ring_capacity = 65536;

/// Names the calling thread in the trace ("main", "worker3", ...).  The
/// scheduler names its workers automatically; external threads that want a
/// stable name call this once.  Unnamed threads appear as "threadK".
void set_thread_name(const std::string& name);

/// Events dropped on ring overflow since the last reset(), over all rings.
[[nodiscard]] std::uint64_t dropped_total() noexcept;

/// Records one leapfrog-phase window with explicit timestamps (the driver
/// computes them from its barrier-completion stamps after the fact).  Goes
/// to a dedicated "phases" pseudo-thread ring so retroactive spans can
/// never violate begin/end nesting on a real thread's timeline.
void emit_phase(const char* name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::int32_t arg = -1) noexcept;

// ---- draining and writers ------------------------------------------------

/// One thread's drained timeline, in emission order.
struct thread_events {
    std::string name;
    std::vector<event> events;
    std::uint64_t dropped = 0;
};

/// Everything recorded since the last reset().  drain() copies under the
/// single-writer protocol (it reads each ring's published prefix), so it is
/// safe at any quiescent point — typically after the runtime is destroyed.
struct trace_snapshot {
    std::vector<thread_events> threads;
    std::uint64_t dropped = 0;
};
[[nodiscard]] trace_snapshot drain();

/// Chrome trace-event JSON ("X" complete events plus "M" thread-name
/// metadata; ts/dur in microseconds).  Loadable in Perfetto.
void write_chrome_trace(std::ostream& os, const trace_snapshot& snap);
bool write_chrome_trace_file(const std::string& path,
                             const trace_snapshot& snap);

// ---- per-phase utilization attribution ----------------------------------

/// Worker-seconds of one phase, summed over that phase's windows across all
/// traced iterations.  productive = task spans, steal = unparked search
/// gaps, idle = parked gaps, barrier = gap time running into the window's
/// closing barrier (the tail wait for stragglers).
struct phase_utilization {
    std::string name;
    double window_s = 0.0;  ///< summed window wall time (one worker)
    double productive_s = 0.0;
    double steal_s = 0.0;
    double idle_s = 0.0;
    double barrier_s = 0.0;
    /// Worker-seconds spent packing checkpoint regions in this phase.
    /// Checkpoint spans are nested inside pack task spans, so this is a
    /// *subset* of productive_s (not a fifth coverage category) — it makes
    /// the overlapped packing visible without changing the coverage math.
    double checkpoint_s = 0.0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;

    [[nodiscard]] double utilization() const {
        const double denom =
            productive_s + steal_s + idle_s + barrier_s;
        return denom > 0.0 ? productive_s / denom : 0.0;
    }
};

/// The per-phase attribution over a drained trace.  The four category
/// totals sum to wall_s * workers up to scheduler bookkeeping slivers
/// (unattributed_s, kept well under the 2% acceptance slack).
struct utilization_report {
    std::size_t workers = 0;
    double wall_s = 0.0;   ///< first phase-window begin to last window end
    double span_s = 0.0;   ///< full trace extent (first to last event)
    std::vector<phase_utilization> phases;
    double productive_s = 0.0;
    double steal_s = 0.0;
    double idle_s = 0.0;
    double barrier_s = 0.0;
    double checkpoint_s = 0.0;  ///< subset of productive_s (see above)
    double unattributed_s = 0.0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t dropped = 0;

    [[nodiscard]] double accounted_s() const {
        return productive_s + steal_s + idle_s + barrier_s;
    }
    /// accounted / (wall * workers) — the acceptance check wants >= 0.98.
    [[nodiscard]] double coverage() const {
        const double denom = wall_s * static_cast<double>(workers);
        return denom > 0.0 ? accounted_s() / denom : 0.0;
    }
    [[nodiscard]] double utilization() const {
        const double denom = wall_s * static_cast<double>(workers);
        return denom > 0.0 ? productive_s / denom : 0.0;
    }
};

/// Attributes worker time to phases.  Runs without phase spans too (e.g.
/// the foreach driver): the whole trace extent becomes one "run" window.
[[nodiscard]] utilization_report build_utilization(
    const trace_snapshot& snap);

void write_utilization_text(std::ostream& os, const utilization_report& r);
void write_utilization_json(std::ostream& os, const utilization_report& r);

/// Writes JSON when `path` ends in ".json", text otherwise.
bool write_utilization_file(const std::string& path,
                            const utilization_report& r);

}  // namespace amt::trace
