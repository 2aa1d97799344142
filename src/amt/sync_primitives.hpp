// amt/sync_primitives.hpp
//
// Cooperative countdown latch in the style of hpx::latch.  "Cooperative"
// means a worker thread that would block instead executes pending tasks
// (via the same mechanism as future::wait), so it is safe to wait *inside*
// tasks even on a single-worker runtime.

#pragma once

#include <cstddef>
#include <mutex>
#include <thread>

#include "amt/atomic.hpp"
#include "amt/scheduler.hpp"

namespace amt {

namespace detail {

/// Waits until `pred()` is true: cooperatively on worker threads, on the
/// given condvar otherwise.  `mu` must be the mutex guarding the predicate
/// state and must be *unlocked* when calling.
template <class Pred>
void cooperative_wait(amt::mutex& mu, amt::condition_variable& cv,
                      Pred&& pred) {
    runtime* rt = runtime::active();
    const bool on_worker = rt != nullptr && rt->on_worker_thread();
    if (on_worker) {
        for (;;) {
            {
                std::lock_guard lk(mu);
                if (pred()) return;
            }
            if (!rt->try_run_one()) std::this_thread::yield();
        }
    }
    std::unique_lock lk(mu);
    cv.wait(lk, std::forward<Pred>(pred));
}

}  // namespace detail

/// Single-use countdown latch (hpx::latch / std::latch analogue).
class latch {
public:
    explicit latch(std::ptrdiff_t expected) : count_(expected) {}
    latch(const latch&) = delete;
    latch& operator=(const latch&) = delete;

    /// Decrements the count by n; threads blocked in wait() are released
    /// when it reaches zero.
    void count_down(std::ptrdiff_t n = 1) {
        std::ptrdiff_t remaining;
        {
            std::lock_guard lk(mu_);
            count_ -= n;
            remaining = count_;
        }
        if (remaining <= 0) cv_.notify_all();
    }

    [[nodiscard]] bool try_wait() const {
        std::lock_guard lk(mu_);
        return count_ <= 0;
    }

    void wait() const {
        detail::cooperative_wait(mu_, cv_, [this] { return count_ <= 0; });
    }

    void arrive_and_wait(std::ptrdiff_t n = 1) {
        count_down(n);
        wait();
    }

private:
    mutable amt::mutex mu_;
    mutable amt::condition_variable cv_;
    std::ptrdiff_t count_;
};

}  // namespace amt
