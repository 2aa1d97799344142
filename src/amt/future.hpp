// amt/future.hpp
//
// Futures, promises and continuations — the "futurization" primitives of the
// amt runtime, API-compatible in spirit with hpx::future / hpx::promise:
//
//   amt::future<int> f1 = amt::async(do_some_work, 42);
//   amt::future<int> f2 = f1.then([](amt::future<int>&& f) {
//       return do_more_work(f.get());
//   });
//   int result = f2.get();
//
// Key semantic choices (documented because they shape the LULESH drivers):
//  * then() consumes the source future and schedules the continuation as a
//    new task by default (launch::async); launch::sync runs it inline on
//    whichever thread makes the antecedent ready.
//  * get()/wait() on a *worker* thread blocks cooperatively: the worker
//    executes other pending tasks while waiting, which models HPX's
//    lightweight-thread suspension without stackful coroutines and makes
//    nested blocking deadlock-free.
//  * get()/wait() on an external (non-worker) thread blocks on a condition
//    variable, so a runtime with N workers has exactly N computing threads.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>  // std::future_error, std::future_errc
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "amt/scheduler.hpp"
#include "amt/task.hpp"
#include "amt/unique_function.hpp"

namespace amt {

template <class T>
class future;
template <class T>
class promise;

/// Continuation launch policy, mirroring hpx::launch.
enum class launch {
    async,  ///< schedule the continuation as a new task (default)
    sync    ///< run the continuation inline when the antecedent completes
};

namespace detail {

/// State shared between a promise/task and its future.  Holds readiness,
/// the value or exception, and the continuation callbacks registered via
/// then()/when_all().
class shared_state_base {
public:
    shared_state_base() = default;
    shared_state_base(const shared_state_base&) = delete;
    shared_state_base& operator=(const shared_state_base&) = delete;
    virtual ~shared_state_base() = default;

    [[nodiscard]] bool is_ready() const {
        std::lock_guard lk(mu_);
        return ready_;
    }

    void set_exception(std::exception_ptr e) {
        std::unique_lock lk(mu_);
        if (ready_) throw std::future_error(std::future_errc::promise_already_satisfied);
        error_ = std::move(e);
        mark_ready(lk);
    }

    /// Registers `cb` to run exactly once when the state becomes ready; runs
    /// it immediately (on the calling thread) if it already is.
    void add_callback(unique_function<void()> cb) {
        {
            std::lock_guard lk(mu_);
            if (!ready_) {
                callbacks_.push_back(std::move(cb));
                return;
            }
        }
        cb();
    }

    /// Blocks until ready.  Cooperative on worker threads (see file header).
    void wait() const {
        {
            std::lock_guard lk(mu_);
            if (ready_) return;
        }
        runtime* rt = runtime::active();
        if (rt != nullptr && rt->on_worker_thread()) {
            while (!is_ready()) {
                if (!rt->try_run_one()) std::this_thread::yield();
            }
            return;
        }
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return ready_; });
    }

    /// Waits until ready or `deadline`, whichever comes first; returns
    /// whether the state is ready.  Cooperative on worker threads, like
    /// wait().  The building block for halo-exchange timeouts, where
    /// "still not done" is information, not a bug.
    bool wait_until(std::chrono::steady_clock::time_point deadline) const {
        {
            std::lock_guard lk(mu_);
            if (ready_) return true;
        }
        runtime* rt = runtime::active();
        if (rt != nullptr && rt->on_worker_thread()) {
            while (!is_ready()) {
                if (std::chrono::steady_clock::now() >= deadline) return false;
                if (!rt->try_run_one()) std::this_thread::yield();
            }
            return true;
        }
        std::unique_lock lk(mu_);
        return cv_.wait_until(lk, deadline, [this] { return ready_; });
    }

protected:
    /// Precondition: `lk` holds `mu_` and the value/error is stored.
    /// Publishes readiness, then runs the callbacks outside the lock.
    void mark_ready(std::unique_lock<std::mutex>& lk) {
        ready_ = true;
        std::vector<unique_function<void()>> cbs;
        cbs.swap(callbacks_);
        cv_.notify_all();
        lk.unlock();
        for (auto& cb : cbs) cb();
    }

    void rethrow_if_error() const {
        if (error_) std::rethrow_exception(error_);
    }

    mutable std::mutex mu_;
    mutable std::condition_variable cv_;
    bool ready_ = false;
    std::exception_ptr error_;
    std::vector<unique_function<void()>> callbacks_;
};

template <class T>
class shared_state final : public shared_state_base {
public:
    template <class U>
    void set_value(U&& v) {
        std::unique_lock lk(mu_);
        if (ready_) throw std::future_error(std::future_errc::promise_already_satisfied);
        value_.emplace(std::forward<U>(v));
        mark_ready(lk);
    }

    /// Precondition: ready.  Rethrows a stored exception; otherwise moves
    /// the value out (one-shot, like std::future::get).
    T take_value() {
        rethrow_if_error();
        T v = std::move(*value_);
        value_.reset();
        return v;
    }

private:
    std::optional<T> value_;
};

template <>
class shared_state<void> final : public shared_state_base {
public:
    void set_value() {
        std::unique_lock lk(mu_);
        if (ready_) throw std::future_error(std::future_errc::promise_already_satisfied);
        mark_ready(lk);
    }

    void take_value() { rethrow_if_error(); }
};

template <class T>
using state_ptr = std::shared_ptr<shared_state<T>>;

/// Invokes `fn(args...)` and routes the result (value or exception) into
/// `st`.  Central helper shared by async() and then().
template <class R, class F, class... Args>
void fulfill(const state_ptr<R>& st, F& fn, Args&&... args) {
    try {
        if constexpr (std::is_void_v<R>) {
            fn(std::forward<Args>(args)...);
            st->set_value();
        } else {
            st->set_value(fn(std::forward<Args>(args)...));
        }
    } catch (...) {
        st->set_exception(std::current_exception());
    }
}

}  // namespace detail

/// One-shot handle to an asynchronous result (see file header).
template <class T>
class future {
public:
    using value_type = T;

    future() noexcept = default;
    explicit future(detail::state_ptr<T> st) : state_(std::move(st)) {}

    future(future&&) noexcept = default;
    future& operator=(future&&) noexcept = default;
    future(const future&) = delete;
    future& operator=(const future&) = delete;

    /// True if this future refers to a shared state (not default-constructed
    /// or consumed by get()/then()).
    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

    [[nodiscard]] bool is_ready() const {
        return state_ != nullptr && state_->is_ready();
    }

    void wait() const {
        throw_if_invalid();
        state_->wait();
    }

    /// Waits up to `timeout`; returns whether the future became ready.
    /// Does not consume the future.
    template <class Rep, class Period>
    bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
        throw_if_invalid();
        return state_->wait_until(std::chrono::steady_clock::now() + timeout);
    }

    /// Blocks until ready, then returns the value (or rethrows the stored
    /// exception).  Consumes the future.
    T get() {
        throw_if_invalid();
        state_->wait();
        auto st = std::move(state_);
        return st->take_value();
    }

    /// Attaches a continuation `f(future<T>&&)`; returns a future for its
    /// result.  Consumes this future.  With launch::async (default) the
    /// continuation is scheduled on the active runtime; a library user who
    /// attaches continuations with no runtime alive gets inline execution.
    template <class F>
    auto then(launch policy, F&& f) -> future<std::invoke_result_t<F, future<T>&&>> {
        using R = std::invoke_result_t<F, future<T>&&>;
        throw_if_invalid();
        auto next = std::make_shared<detail::shared_state<R>>();
        auto st = std::move(state_);

        auto run = [st, next, fn = std::forward<F>(f)]() mutable {
            detail::fulfill(next, fn, future<T>(std::move(st)));
        };
        if (policy == launch::sync) {
            st->add_callback(std::move(run));
        } else {
            st->add_callback([run = std::move(run)]() mutable {
                if (runtime* rt = runtime::active()) {
                    rt->post_fn(std::move(run));
                } else {
                    run();
                }
            });
        }
        return future<R>(std::move(next));
    }

    template <class F>
    auto then(F&& f) {
        return then(launch::async, std::forward<F>(f));
    }

    /// Internal: shared state access for combinators (when_all).
    [[nodiscard]] const detail::state_ptr<T>& raw_state() const noexcept {
        return state_;
    }

private:
    void throw_if_invalid() const {
        if (state_ == nullptr) throw std::future_error(std::future_errc::no_state);
    }

    detail::state_ptr<T> state_;
};

/// Producer side of a future, mirroring hpx::promise / std::promise.
template <class T>
class promise {
public:
    promise() : state_(std::make_shared<detail::shared_state<T>>()) {}
    promise(promise&&) noexcept = default;
    promise& operator=(promise&&) noexcept = default;
    promise(const promise&) = delete;
    promise& operator=(const promise&) = delete;

    ~promise() {
        if (state_ != nullptr && !state_->is_ready() && future_retrieved_) {
            state_->set_exception(std::make_exception_ptr(
                std::future_error(std::future_errc::broken_promise)));
        }
    }

    future<T> get_future() {
        if (state_ == nullptr) throw std::future_error(std::future_errc::no_state);
        if (future_retrieved_) {
            throw std::future_error(std::future_errc::future_already_retrieved);
        }
        future_retrieved_ = true;
        return future<T>(state_);
    }

    template <class U = T>
    void set_value(U&& v) {
        require_state();
        state_->set_value(std::forward<U>(v));
    }

    void set_value()
        requires std::is_void_v<T>
    {
        require_state();
        state_->set_value();
    }

    void set_exception(std::exception_ptr e) {
        require_state();
        state_->set_exception(std::move(e));
    }

private:
    void require_state() const {
        if (state_ == nullptr) throw std::future_error(std::future_errc::no_state);
    }

    detail::state_ptr<T> state_;
    bool future_retrieved_ = false;
};

/// An already-ready future holding `v`.
template <class T>
future<std::decay_t<T>> make_ready_future(T&& v) {
    auto st = std::make_shared<detail::shared_state<std::decay_t<T>>>();
    st->set_value(std::forward<T>(v));
    return future<std::decay_t<T>>(std::move(st));
}

inline future<void> make_ready_future() {
    auto st = std::make_shared<detail::shared_state<void>>();
    st->set_value();
    return future<void>(std::move(st));
}

template <class T>
future<T> make_exceptional_future(std::exception_ptr e) {
    auto st = std::make_shared<detail::shared_state<T>>();
    st->set_exception(std::move(e));
    return future<T>(std::move(st));
}

}  // namespace amt
