// amt/mailbox.hpp
//
// The two lock-free halves of a homed post (runtime::post_to): where the
// task goes, and whether a parked worker must be woken for it.
//
//   * mailbox — a worker's inbox for ready tasks that other threads hand
//     it: an intrusive LIFO stack linked through task_base::qnext.  Any
//     thread pushes (a Treiber push, release on success); a consumer
//     takes the WHOLE chain with one acquire exchange — the owner when it
//     runs out of deque work, a thief only once every deque is empty.
//     Taking the whole chain instead of popping one task keeps the
//     protocol ABA-free: nothing ever unlinks a task while another thread
//     may still be reading its qnext, so a recycled graph node re-posted
//     in the next replay cannot be spliced back by a stale pop.
//
//   * sleeper_gate — the count of workers on their way to park.  A worker
//     announces itself (enter: increment, seq_cst fence) BEFORE its last
//     probe of the queues; a poster publishes its task, then fences
//     (seq_cst) and reads the count (any_after_post).  The two fences
//     order the store-buffer pattern: either the poster sees the sleeper
//     and takes the wakeup lock, or the sleeper's last probe sees the
//     task.  A post with nobody parked therefore touches no shared lock.
//
// tests/model/test_model_mailbox.cpp explores both protocols and the
// weakened twins (AMT_MODEL_CHECK seams below) the checker must catch.

#pragma once

#include <cstdint>

#include "amt/atomic.hpp"
#include "amt/config.hpp"
#include "amt/task.hpp"

namespace amt {

class mailbox {
public:
    mailbox() = default;
    mailbox(const mailbox&) = delete;
    mailbox& operator=(const mailbox&) = delete;

    /// Any thread.  `t` must not be in any other queue.
    void push(task_base* t) noexcept {
        const amt::memory_order order = model_weaken_push
                                            ? amt::memory_order_relaxed
                                            : amt::memory_order_release;
        task_base* head = head_.load(amt::memory_order_relaxed);
        do {
            t->qnext.store(head, amt::memory_order_relaxed);
        } while (!head_.compare_exchange_weak(head, t, order,
                                              amt::memory_order_relaxed));
    }

    /// Any thread.  Takes every queued task, newest first, linked through
    /// qnext (nullptr-terminated); nullptr when empty.  A consumer must
    /// read a task's qnext before handing the task on.
    [[nodiscard]] task_base* take_all() noexcept {
        if (head_.load(amt::memory_order_relaxed) == nullptr) return nullptr;
        return head_.exchange(nullptr, amt::memory_order_acquire);
    }

    [[nodiscard]] bool empty_approx() const noexcept {
        return head_.load(amt::memory_order_relaxed) == nullptr;
    }

#if AMT_MODEL_CHECK
    /// Model-litmus seam: demotes push's release to relaxed, so the
    /// taker may read a stale qnext.  A constant false in normal builds.
    static inline bool model_weaken_push = false;
#else
    static constexpr bool model_weaken_push = false;
#endif

private:
    alignas(cache_line_size) amt::atomic<task_base*> head_{nullptr};
};

class sleeper_gate {
public:
    /// A worker about to park, before its last probe of the queues.
    void enter() noexcept {
#if AMT_TSAN
        n_.fetch_add(1, amt::memory_order_seq_cst);
#else
        n_.fetch_add(1, amt::memory_order_relaxed);
        if (!model_drop_sleeper_fence) {
            amt::atomic_thread_fence(amt::memory_order_seq_cst);
        }
#endif
    }
    /// The same worker once it stops parking (found work or woke up).
    void leave() noexcept { n_.fetch_sub(1, amt::memory_order_relaxed); }

    /// A poster, after publishing its task: true when a worker may be
    /// parked and must be woken.
    [[nodiscard]] bool any_after_post() noexcept {
#if AMT_TSAN
        // TSan does not model fences (amt/config.hpp): seq_cst RMWs on the
        // count order the two sides instead, at the price of a shared
        // read-modify-write per post.
        return n_.fetch_add(0, amt::memory_order_seq_cst) != 0;
#else
        if (!model_drop_poster_fence) {
            amt::atomic_thread_fence(amt::memory_order_seq_cst);
        }
        return n_.load(amt::memory_order_relaxed) != 0;
#endif
    }

#if AMT_MODEL_CHECK
    /// Model-litmus seams: drop the sleeper's or the poster's fence.
    /// Constants false in normal builds.
    static inline bool model_drop_sleeper_fence = false;
    static inline bool model_drop_poster_fence = false;
#else
    static constexpr bool model_drop_sleeper_fence = false;
    static constexpr bool model_drop_poster_fence = false;
#endif

private:
    alignas(cache_line_size) amt::atomic<std::uint32_t> n_{0};
};

}  // namespace amt
