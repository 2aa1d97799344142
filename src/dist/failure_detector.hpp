// dist/failure_detector.hpp
//
// Per-slab liveness tracking for the distributed driver.  The fail-stop
// design had one global signal — "no task finished for a whole timeout
// window" — which says *that* the run stalled but not *which* slab died.
// This detector gives every slab a heartbeat slot: boundary sends, ghost
// unpacks, and the per-iteration kill-switch task stamp it as they make
// progress.  When the driver's global progress deadline fires, suspect()
// ranks the slabs by staleness — the slab that stopped beating first is the
// one whose silence wedged its peers (they kept beating until their halo
// gets blocked on it) — so the recovery layer knows which domain to rebuild.
//
// Heartbeats are single relaxed atomic stores of a steady-clock stamp; the
// verdict path (driver thread, already past the deadline) does the reads.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/counters.hpp"
#include "lulesh/types.hpp"

namespace lulesh::dist {

/// What the driver learned about the last failed iteration: which slab
/// failed (-1 when unattributable — e.g. a global volume error), the status
/// the failure maps to, and whether it was transient (an injected/dropped
/// fault that a replay at unchanged dt can clear).  The recovery layer
/// (dist/resilient_dist) uses this to decide which slab to rebuild.
struct slab_failure {
    index_t slab = -1;
    status code = status::ok;
    bool transient = false;
    std::string message;
};

class failure_detector {
public:
    explicit failure_detector(index_t num_slabs)
        : num_slabs_(num_slabs),
          slots_(std::make_unique<slot[]>(
              static_cast<std::size_t>(num_slabs))) {}

    [[nodiscard]] index_t num_slabs() const noexcept { return num_slabs_; }

    /// Stamps slab `s` as alive now.  Called from halo send/unpack tasks and
    /// the per-slab liveness task; any thread.
    void heartbeat(index_t s) noexcept {
        slot& sl = slots_[static_cast<std::size_t>(s)];
        sl.last_ns.store(now_ns(), amt::memory_order_relaxed);
        sl.beats.fetch_add(1, amt::memory_order_relaxed);
        amt::resilience().heartbeats.add(1);
    }

    /// Re-stamps every slab at an iteration boundary so staleness is always
    /// measured within the current iteration.
    void begin_iteration() noexcept {
        const std::int64_t now = now_ns();
        for (index_t s = 0; s < num_slabs_; ++s) {
            slots_[static_cast<std::size_t>(s)].last_ns.store(
                now, amt::memory_order_relaxed);
        }
    }

    [[nodiscard]] std::uint64_t beats(index_t s) const noexcept {
        return slots_[static_cast<std::size_t>(s)].beats.load(
            amt::memory_order_relaxed);
    }

    /// Slabs ordered most-stale first (oldest heartbeat).  Meaningful once
    /// the caller has established that global progress stopped; the front
    /// entry is the prime suspect.
    [[nodiscard]] std::vector<index_t> suspect() const {
        std::vector<std::pair<std::int64_t, index_t>> ranked;
        ranked.reserve(static_cast<std::size_t>(num_slabs_));
        for (index_t s = 0; s < num_slabs_; ++s) {
            ranked.emplace_back(slots_[static_cast<std::size_t>(s)]
                                    .last_ns.load(amt::memory_order_relaxed),
                                s);
        }
        std::sort(ranked.begin(), ranked.end());
        std::vector<index_t> out;
        out.reserve(ranked.size());
        for (const auto& [ns, s] : ranked) {
            (void)ns;
            out.push_back(s);
        }
        return out;
    }

private:
    struct slot {
        amt::atomic<std::int64_t> last_ns{0};
        amt::atomic<std::uint64_t> beats{0};
    };

    [[nodiscard]] static std::int64_t now_ns() noexcept {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    index_t num_slabs_;
    std::unique_ptr<slot[]> slots_;
};

}  // namespace lulesh::dist
