// core/watchdog.cpp — barrier-progress monitor thread.

#include "core/watchdog.hpp"

#include <utility>

#include "amt/trace.hpp"

namespace lulesh {

watchdog::watchdog(const amt::runtime& rt, std::chrono::milliseconds deadline,
                   callback on_stall, std::chrono::milliseconds poll)
    : rt_(rt),
      deadline_(deadline),
      poll_(poll),
      on_stall_(std::move(on_stall)) {
    thread_ = std::thread([this] { run(); });
}

watchdog::~watchdog() { stop(); }

void watchdog::stop() {
    {
        std::lock_guard lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
}

watchdog::report watchdog::last_report() const {
    std::lock_guard lk(mu_);
    return last_;
}

void watchdog::run() {
    using clock = std::chrono::steady_clock;
    if (amt::trace::compiled_in) {
        amt::trace::set_thread_name("watchdog");
    }

    std::uint64_t last_finished = rt_.snapshot_counters().tasks_executed;
    clock::time_point last_advance = clock::now();
    bool reported_this_episode = false;

    std::unique_lock lk(mu_);
    while (!stopping_) {
        cv_.wait_for(lk, poll_, [this] { return stopping_; });
        if (stopping_) break;

        // The snapshot reads each worker's finished count before its
        // started count, so it never shows a finish whose start it missed.
        const amt::counters_snapshot counts = rt_.snapshot_counters();
        const std::uint64_t finished = counts.tasks_executed;
        const std::uint64_t started = counts.tasks_started;
        const clock::time_point now = clock::now();

        if (finished != last_finished) {
            last_finished = finished;
            last_advance = now;
            reported_this_episode = false;  // progress resumed: re-arm
            continue;
        }
        if (started <= finished || reported_this_episode) continue;

        const auto stalled_for =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - last_advance);
        if (stalled_for < deadline_) continue;

        const std::vector<const char*> in_flight = rt_.in_flight_labels();
        const char* site = in_flight.empty() ? nullptr : in_flight.front();
        std::vector<std::string> sites(in_flight.begin(), in_flight.end());
        // The site label has static storage (wave_site / probe contract),
        // so it is a valid trace-event name; the mark lands on this
        // monitor thread's own timeline.
        amt::trace::mark(site != nullptr ? site : "stall",
                         static_cast<std::int32_t>(started - finished));
        last_ = report{site != nullptr ? site : "?", started, finished,
                       stalled_for, std::move(sites)};
        reported_this_episode = true;
        fired_.store(true, amt::memory_order_release);
        if (on_stall_) {
            // Run the callback outside the lock: it may call last_report()
            // or stop() — stop() from the callback would deadlock on join,
            // so callbacks should only *signal*, not join; last_report() is
            // fine.
            report r = last_;
            lk.unlock();
            on_stall_(r);
            lk.lock();
        }
    }
}

}  // namespace lulesh
