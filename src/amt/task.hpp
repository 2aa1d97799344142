// amt/task.hpp
//
// The unit of work handled by the scheduler.  A task is a heap-allocated,
// type-erased nullary callable.  The scheduler's queues store raw
// `task_base*` (the Chase-Lev deque needs trivially copyable slots); the
// owning side wraps them in `task_ptr` whenever ownership is unambiguous.
//
// Two refinements keep the steady-state replay path allocation-free:
//
//   * `scheduler_owned()` — tasks constructed through make_task are owned
//     by the scheduler, which deletes them after execute().  Nodes of a
//     compiled static_graph are *not*: they are arena-stored, recycled
//     across replays, and the scheduler must never delete them.  The flag
//     is immutable after construction, so the scheduler reads it *before*
//     running the task (running a graph's final node may re-arm or destroy
//     the node's storage).
//
//   * `qnext` — an intrusive link used by the runtime's global injection
//     queue and by the workers' mailboxes (amt/mailbox.hpp), so posting
//     from any thread needs no container node allocation.  A task is in at
//     most one queue at a time (the Chase-Lev deques store raw pointers in
//     ring slots and never touch qnext).  The link is an atomic because a
//     mailbox taker reads it without a lock; every access is relaxed and
//     the mailbox's release/acquire pair orders it.

#pragma once

#include <cassert>
#include <memory>
#include <utility>

#include "amt/atomic.hpp"
#include "amt/unique_function.hpp"

namespace amt {

/// Abstract base of all scheduled work items.
///
/// `execute()` is noexcept: tasks created through the public API (async,
/// then, bulk_async) route exceptions into the associated future's shared
/// state before reaching the scheduler, so an exception escaping here would
/// be a library bug and terminating is the correct response.
class task_base {
public:
    task_base() = default;
    task_base(const task_base&) = delete;
    task_base& operator=(const task_base&) = delete;
    virtual ~task_base() = default;

    virtual void execute() noexcept = 0;

    /// True when the scheduler owns this task and must delete it after
    /// execute() (the make_task path).  False for externally-owned tasks
    /// (compiled-graph nodes) that outlive their execution.
    [[nodiscard]] bool scheduler_owned() const noexcept { return owned_; }

    /// Intrusive link for the runtime's injection queue and mailboxes.
    /// Owned by the scheduler while the task is queued; meaningless
    /// otherwise.
    amt::atomic<task_base*> qnext{nullptr};

protected:
    /// For subclasses whose instances the scheduler must not delete
    /// (static_graph nodes pass false).
    explicit task_base(bool scheduler_owned) : owned_(scheduler_owned) {}

private:
    bool owned_ = true;
};

using task_ptr = std::unique_ptr<task_base>;

namespace detail {

template <class F>
class callable_task final : public task_base {
public:
    explicit callable_task(F&& f) : fn_(std::move(f)) {}
    explicit callable_task(const F& f) : fn_(f) {}

    void execute() noexcept override { fn_(); }

private:
    F fn_;
};

}  // namespace detail

/// Wraps an arbitrary nullary callable into a heap-allocated task.
template <class F>
task_ptr make_task(F&& f) {
    using D = std::decay_t<F>;
    return std::make_unique<detail::callable_task<D>>(std::forward<F>(f));
}

}  // namespace amt
