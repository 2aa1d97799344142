// amt/fault.hpp
//
// Deterministic, seedable fault injection for task execution — the testing
// half of the resilience story (the recovery half lives in
// lulesh/resilient_run).  Task bodies call fault::probe("<site>") at entry;
// an armed *plan* decides, deterministically from (seed, probe index, epoch,
// site), whether that probe
//
//   * throws fault::injected_fault   (a failed task),
//   * sleeps for a fixed delay       (a slow task / jittery worker), or
//   * stalls until released          (a hung worker).
//
// Cost model: when no plan is armed, probe() is a single relaxed atomic
// load and a predictable branch (measured <1% on the task-graph iteration,
// see bench/fault_overhead).
//
// Determinism: every probe that passes the site/epoch filters draws a
// uniform [0,1) value from splitmix64(seed, probe-index); the sequence of
// draws — and therefore the injection pattern — depends only on the plan,
// not on wall-clock or scheduling.  (Which *worker* executes the injected
// task is still up to the scheduler; the guarantee is that the k-th
// matching probe injects or not reproducibly.)
//
// Concurrency contract: probes may run concurrently with each other and
// with set_epoch()/release_stalls()/snapshot().  arm()/disarm() must not
// race with in-flight probes of a *running* task graph — quiesce (join the
// futures) first, exactly like the tests do between iterations.

#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "amt/atomic.hpp"

namespace amt::fault {

/// Thrown by an armed probe with action::throw_exception.  Deliberately not
/// derived from any lulesh error type: recovery code must treat it as "some
/// task failed", the same way it would treat a std::bad_alloc.
class injected_fault : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class action {
    throw_exception,  ///< probe throws injected_fault
    delay,            ///< probe sleeps for plan::delay, then continues
    stall             ///< probe blocks until release_stalls()/disarm()
                      ///< (or plan::stall_timeout as a fail-safe)
};

/// What to inject, where, and when.  Arm at most one plan at a time.
struct plan {
    action kind = action::throw_exception;

    /// Only probes whose site string equals this match; empty matches all.
    std::string site;

    /// Only probes while the current epoch (see set_epoch — the run loops
    /// publish the simulation cycle) equals this match; -1 matches all.
    std::int64_t epoch = -1;

    /// Chance that a matching probe injects, drawn deterministically from
    /// (seed, probe index).  1.0 → the first matching probe injects.
    double probability = 1.0;
    std::uint64_t seed = 0;

    /// Total injections before the plan goes idle; -1 → unbounded.
    int max_injections = 1;

    /// Sleep duration for action::delay.
    std::chrono::milliseconds delay{5};

    /// Fail-safe for action::stall: a stalled probe returns after this even
    /// if nobody calls release_stalls(), so a forgotten release can never
    /// wedge a test binary forever.
    std::chrono::milliseconds stall_timeout{30000};
};

struct stats {
    std::uint64_t probes = 0;      ///< probes evaluated while armed
    std::uint64_t injections = 0;  ///< faults actually delivered
};

/// Installs `p` and starts injecting.  Resets the probe index and budget.
void arm(const plan& p);

/// Stops injecting and releases any probes parked in a stall.
void disarm();

[[nodiscard]] stats snapshot();
void reset_stats();

/// Publishes the current epoch (the run loops publish the cycle number
/// being computed).  Callable from any thread at any time.
void set_epoch(std::int64_t epoch) noexcept;
[[nodiscard]] std::int64_t epoch() noexcept;

/// Unblocks every probe currently parked in an action::stall injection.
/// The plan stays armed (budget permitting, later probes can stall again).
void release_stalls();

/// Probes currently parked in a stall (diagnostic, racy by nature).
[[nodiscard]] int stalled_now();

namespace detail {
extern amt::atomic<bool> g_armed;
void probe_slow(const char* site);
bool decide_slow(const char* site);
}  // namespace detail

/// Instrumentation point for task bodies.  One relaxed-ish load + branch
/// when disarmed.
inline void probe(const char* site) {
    if (detail::g_armed.load(amt::memory_order_acquire)) {
        detail::probe_slow(site);
    }
}
/// Non-throwing injection *decision* for instrumentation points that model
/// the fault themselves instead of raising an exception — e.g. the
/// distributed halo layer's `halo_drop` (swallow a message) and
/// `halo_corrupt` (flip a payload bit) sites.  Matching and budget
/// accounting are identical to probe(): a throw_exception-kind plan that
/// would have injected here returns true (consuming one unit of the
/// budget) and the caller applies its own effect; delay/stall plans
/// perform their usual side effect and return false, like probe().
[[nodiscard]] inline bool decide(const char* site) {
    if (detail::g_armed.load(amt::memory_order_acquire)) {
        return detail::decide_slow(site);
    }
    return false;
}

[[nodiscard]] inline bool armed() noexcept {
    return detail::g_armed.load(amt::memory_order_acquire);
}

}  // namespace amt::fault
