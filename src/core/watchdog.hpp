// core/watchdog.hpp
//
// Barrier-progress watchdog for the task-graph drivers.  A wave that stops
// making progress — a task started but never finished within a deadline —
// would otherwise hang the single blocking b5.get() of the iteration
// forever.  The watchdog samples the runtime's per-worker task records
// (amt/counters.hpp: tasks started and finished, and the label of the task
// in flight) from its own OS thread and fires a callback with a report
// naming the wave the stuck task belongs to, so the run loop can abort,
// diagnose, or release injected stalls instead of hanging.
//
// Detection heuristic: `started > finished` summed over the workers (at
// least one task is in flight) while `finished` has not advanced for
// `deadline`.  Once nothing has finished for a whole deadline, every task
// still in flight is stuck, so the report names them all: `sites` carries
// the label of every busy worker's task (runtime::in_flight_labels) and
// `site` the first of them.  The watchdog fires once per stall episode
// and re-arms itself when `finished` moves again, so a long run with
// several injected stalls reports each one.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/scheduler.hpp"

namespace lulesh {

class watchdog {
public:
    struct report {
        std::string site;  ///< wave label of a stuck task ("?" if unknown)
        std::uint64_t started = 0;
        std::uint64_t finished = 0;
        std::chrono::milliseconds stalled_for{0};
        /// Labels of *all* in-flight tasks at detection time, one per busy
        /// worker (runtime::in_flight_labels); `site` is the first.
        std::vector<std::string> sites;
    };

    using callback = std::function<void(const report&)>;

    /// Starts the monitor thread immediately.  `rt`'s task records are
    /// sampled every `poll`; `on_stall` runs on the watchdog thread when a
    /// stall episode is detected.  `rt` must outlive the watchdog.
    watchdog(const amt::runtime& rt, std::chrono::milliseconds deadline,
             callback on_stall,
             std::chrono::milliseconds poll = std::chrono::milliseconds(10));

    /// Joins the monitor thread.
    ~watchdog();

    watchdog(const watchdog&) = delete;
    watchdog& operator=(const watchdog&) = delete;

    /// Whether any stall episode has been reported since construction.
    [[nodiscard]] bool fired() const noexcept {
        return fired_.load(amt::memory_order_acquire);
    }

    /// The most recent report (valid once fired() is true).
    [[nodiscard]] report last_report() const;

    /// Asks the monitor thread to exit and joins it (idempotent; also run
    /// by the destructor).
    void stop();

private:
    void run();

    const amt::runtime& rt_;
    std::chrono::milliseconds deadline_;
    std::chrono::milliseconds poll_;
    callback on_stall_;

    amt::atomic<bool> fired_{false};
    mutable std::mutex mu_;       // guards last_ and stop signalling
    std::condition_variable cv_;  // wakes the poll loop for prompt shutdown
    bool stopping_ = false;
    report last_;

    std::thread thread_;
};

}  // namespace lulesh
