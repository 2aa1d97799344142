// amt/scheduler.cpp — work-stealing scheduler implementation.

#include "amt/scheduler.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

#include "amt/metrics.hpp"
#include "amt/trace.hpp"

namespace amt {

namespace {

// Metric handles are interned once and cached; every update below is gated
// on metrics::enabled() (one relaxed load disarmed).  Naming per
// docs/observability.md.
metrics::histogram& task_duration_hist() {
    static auto& h = metrics::get_histogram(
        "amt_task_duration_ns", "task body execution wall time");
    return h;
}

metrics::histogram& steal_latency_hist() {
    static auto& h = metrics::get_histogram(
        "amt_steal_latency_ns",
        "time from a worker's first empty probe to its next acquired task");
    return h;
}

metrics::histogram& queue_depth_hist() {
    static auto& h = metrics::get_histogram(
        "amt_dispatch_queue_depth",
        "posting worker's deque depth sampled after each push");
    return h;
}

metrics::counter& external_post_counter() {
    static auto& c = metrics::get_counter(
        "amt_tasks_posted_external",
        "tasks entering through the global injection queue");
    return c;
}

}  // namespace

amt::atomic<runtime*> runtime::active_{nullptr};

namespace {

thread_local current_worker_info tls_worker{};

/// The record of the task executing on this thread: its worker's own
/// record, or a non-worker thread's local one inside try_run_one.
thread_local worker_counters* tls_record = nullptr;

/// Rounds of (full work search + yield) an idle worker performs before it
/// parks on the wakeup condition variable.
constexpr std::size_t spin_rounds_before_sleep = 64;

/// xorshift64* — cheap thread-local PRNG for victim selection.  Quality
/// requirements are minimal; speed and statelessness across calls matter.
inline std::uint64_t next_rng(std::uint64_t& s) noexcept {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
}

}  // namespace

const current_worker_info& current_worker() noexcept { return tls_worker; }

namespace {

/// Closes the open clock of record `c` and books its interval into every
/// per-task instrument.  The finish is published last, with release, so
/// an observer that sees it also sees the start and the booked time.
std::uint64_t close_clock(worker_counters& c) noexcept {
    const auto t1 = clock::now();
    c.open = false;
    c.task_end = t1;
    const auto dur_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - c.task_start)
            .count());
    c.productive_ns.add(dur_ns);
    if (metrics::enabled()) task_duration_hist().record(dur_ns);
    if (trace::enabled()) {
        trace::emit_span(trace::event_kind::task_span,
                         c.label != nullptr ? c.label : "task", c.task_start,
                         t1, c.label_arg);
    }
    c.tasks_executed.add_release(1);
    return dur_ns;
}

}  // namespace

void annotate_task(const char* name, std::int32_t arg) noexcept {
    worker_counters* c = tls_record;
    if (c == nullptr || !c->open || c->label != nullptr) return;
    c->label = name;
    c->label_arg = arg;
}

std::uint64_t close_task_clock() noexcept {
    worker_counters* c = tls_record;
    return c != nullptr && c->open ? close_clock(*c) : 0;
}

runtime::runtime(std::size_t num_workers) {
    std::size_t n = num_workers;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0) n = 1;
    }
    // Four workers to a domain once there are enough of them to make
    // locality tiers meaningful.
    domain_size_ = n > 4 ? 4 : n;
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workers_.push_back(std::make_unique<worker>(i));
        // Seed must be nonzero for xorshift; mix the index in.
        workers_[i]->rng_state = 0x9E3779B97F4A7C15ULL * (i + 1) + 1;
    }
    start_time_ = clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        worker* w = workers_[i].get();
        w->thread = std::thread([this, w] { worker_loop(*w); });
    }
    active_.store(this, amt::memory_order_release);
}

runtime::~runtime() {
    // Drain: wait until every queue is empty and all workers are idle.  The
    // public contract is that destroying the runtime after all futures the
    // caller cares about are ready is safe; queued fire-and-forget tasks are
    // still completed here.
    for (;;) {
        bool any = false;
        {
            std::lock_guard lk(global_mu_);
            any = global_head_ != nullptr;
        }
        if (!any) {
            for (auto& w : workers_) {
                if (!w->queue.empty_approx() || !w->mail.empty_approx()) {
                    any = true;
                    break;
                }
            }
        }
        if (!any) break;
        std::this_thread::yield();
    }

    shutdown_.store(true, amt::memory_order_release);
    {
        std::lock_guard lk(sleep_mu_);
        ++epoch_;
    }
    sleep_cv_.notify_all();
    for (auto& w : workers_) {
        if (w->thread.joinable()) w->thread.join();
    }

    runtime* self = this;
    active_.compare_exchange_strong(self, nullptr, amt::memory_order_acq_rel);
}

runtime* runtime::active() noexcept {
    return active_.load(amt::memory_order_acquire);
}

bool runtime::on_worker_thread() const noexcept {
    return tls_worker.rt == this;
}

void runtime::post(task_ptr t) {
    assert(t && "posting a null task");
    enqueue(t.release());
    wake_one_if_parked();
}

void runtime::post_to(task_base* raw, std::size_t home) {
    assert(raw != nullptr && "posting a null task");
    if (home < workers_.size() &&
        (tls_worker.rt != this || tls_worker.index != home)) {
        workers_[home]->mail.push(raw);
    } else {
        enqueue(raw);
    }
    wake_one_if_parked();
}

void runtime::enqueue(task_base* raw) {
    if (tls_worker.rt == this) {
        auto& q = workers_[tls_worker.index]->queue;
        q.push(raw);
        if (metrics::enabled()) {
            queue_depth_hist().record(q.size_approx());
        }
    } else {
        if (metrics::enabled()) external_post_counter().add(1);
        std::lock_guard lk(global_mu_);
        raw->qnext.store(nullptr, amt::memory_order_relaxed);
        if (global_tail_ != nullptr) {
            global_tail_->qnext.store(raw, amt::memory_order_relaxed);
        } else {
            global_head_ = raw;
        }
        global_tail_ = raw;
        global_pending_.store(true, amt::memory_order_relaxed);
    }
}

void runtime::wake_one_if_parked() {
    if (!sleepers_.any_after_post()) return;
    {
        std::lock_guard lk(sleep_mu_);
        ++epoch_;
    }
    sleep_cv_.notify_one();
}

task_base* runtime::try_pop_global() {
    if (!global_pending_.load(amt::memory_order_relaxed)) return nullptr;
    std::lock_guard lk(global_mu_);
    task_base* t = global_head_;
    if (t != nullptr) {
        global_head_ = t->qnext.load(amt::memory_order_relaxed);
        if (global_head_ == nullptr) {
            global_tail_ = nullptr;
            global_pending_.store(false, amt::memory_order_relaxed);
        }
        t->qnext.store(nullptr, amt::memory_order_relaxed);
    }
    return t;
}

task_base* runtime::split_chain(worker& self, task_base* chain) {
    // The chain is newest first.  Push all but the oldest, so the owner's
    // LIFO pops then run the rest in posting order while thieves take
    // from the newest end; read each link before the push publishes it.
    task_base* t = chain;
    for (;;) {
        task_base* next = t->qnext.load(amt::memory_order_relaxed);
        if (next == nullptr) return t;
        self.queue.push(t);
        t = next;
    }
}

task_base* runtime::try_steal(std::size_t self_index, std::uint64_t& rng_state,
                              bool* same_domain_out, bool mail) {
    const std::size_t n = workers_.size();
    if (n <= 1) return nullptr;
    // Hierarchical sweep: every same-domain victim first (cheap, shares
    // cache/NUMA locality with the thief), then the rest.  Each tier starts
    // at an independently randomized victim to spread contention.
    const std::uint64_t rot_same = next_rng(rng_state);
    const std::uint64_t rot_cross = next_rng(rng_state);
    task_base* found = nullptr;
    bool same = false;
    for_each_steal_victim(self_index, n, domain_size_, rot_same, rot_cross,
                          [&](std::size_t v, bool same_domain) {
                              worker& w = *workers_[v];
                              if (task_base* t = mail ? w.mail.take_all()
                                                      : w.queue.steal()) {
                                  found = t;
                                  same = same_domain;
                                  return true;
                              }
                              return false;
                          });
    if (found != nullptr && same_domain_out != nullptr) *same_domain_out = same;
    return found;
}

task_base* runtime::find_work(worker& self) {
    if (task_base* t = self.queue.pop()) return t;
    if (task_base* chain = self.mail.take_all()) {
        return split_chain(self, chain);
    }
    self.counters.steal_attempts.add(1);
    bool same_domain = false;
    task_base* t = try_steal(self.index, self.rng_state, &same_domain);
    if (t == nullptr) {
        task_base* chain =
            try_steal(self.index, self.rng_state, &same_domain, /*mail=*/true);
        if (chain != nullptr) t = split_chain(self, chain);
    }
    if (t != nullptr) {
        self.counters.steals.add(1);
        (same_domain ? self.counters.steals_same_domain
                     : self.counters.steals_cross_domain)
            .add(1);
        if (trace::enabled()) {
            trace::instant(trace::event_kind::steal, "steal",
                           static_cast<std::int32_t>(self.index));
        }
        return t;
    }
    return try_pop_global();
}

void runtime::execute(task_base* raw, worker_counters& c,
                      clock::time_point* stamp) {
    // Read ownership BEFORE running the task: executing the final node of a
    // compiled graph can complete the graph, after which its owner may
    // re-arm or destroy the node's storage — touching `raw` again would be
    // a use-after-free.  Owned (make_task) tasks are deleted after running.
    const bool owned = raw->scheduler_owned();
    // A task run inside another task's cooperative wait nests: keep the
    // outer task's clock and label, and hand them back when this one ends.
    const clock::time_point outer_start = c.task_start;
    const clock::time_point outer_end = c.task_end;
    const bool outer_open = c.open;
    const char* outer_label = c.label;
    const std::int32_t outer_arg = c.label_arg;

    c.task_start = stamp != nullptr && *stamp != clock::time_point{}
                       ? *stamp
                       : clock::now();
    c.open = true;
    c.label = nullptr;
    c.label_arg = -1;
    c.tasks_started.add(1);
    raw->execute();
    if (c.open) close_clock(c);
    if (stamp != nullptr) *stamp = c.task_end;

    c.task_start = outer_start;
    c.task_end = outer_end;
    c.open = outer_open;
    c.label = outer_label;
    c.label_arg = outer_arg;
    if (owned) delete raw;
}

void runtime::worker_loop(worker& self) {
    tls_worker = current_worker_info{this, self.index};
    tls_record = &self.counters;
    trace::set_thread_name("worker" + std::to_string(self.index));

    // Every interval between two consecutive task executions becomes one
    // coalesced trace span (armed only): from the previous task's end
    // (`anchor`) to the next successful dequeue.  Classified idle if the
    // worker parked during the episode, steal-search if it swept victim
    // deques without success, and dispatch if the next task was found on
    // the first probe (pop overhead plus any OS descheduling); the
    // failed-sweep count is the argument.  Making the non-task time
    // explicit keeps worker timelines hole-free, so the utilization
    // report's four categories sum to wall x workers.
    // The first gap is anchored at runtime construction, not at the first
    // loop iteration: on an oversubscribed machine the OS may schedule this
    // thread well after it became runnable, and that wait is part of the
    // worker's idle time.
    clock::time_point anchor =
        trace::enabled() ? start_time_ : clock::time_point{};
    std::int64_t gap_start = 0;
    std::uint32_t gap_sweeps = 0;
    bool in_gap = false;
    bool gap_parked = false;
    auto close_gap = [&](std::int64_t end_ns) {
        in_gap = false;
        const char* name = gap_parked ? "idle"
                           : gap_sweeps == 0 ? "dispatch"
                                             : "steal-search";
        trace::emit_span(gap_parked ? trace::event_kind::idle_span
                                    : trace::event_kind::search_span,
                         name, gap_start, end_ns,
                         static_cast<std::int32_t>(gap_sweeps));
    };
    // Closes the current gap (opening a zero-sweep dispatch gap first when
    // the task was found on the first probe), runs the task, and re-anchors.
    // The gap end, task begin, task end and next gap begin all share exact
    // clock readings, so consecutive spans tile the timeline with no
    // unattributed slivers.
    auto run_traced = [&](task_base* t) {
        clock::time_point stamp{};
        if (trace::enabled()) {
            stamp = clock::now();
            if (!in_gap && anchor != clock::time_point{}) {
                gap_parked = false;
                gap_sweeps = 0;
                gap_start = trace::to_ns(anchor);
                in_gap = true;
            }
            if (in_gap) close_gap(trace::to_ns(stamp));
        } else {
            in_gap = false;  // disarmed mid-gap: drop the episode
        }
        execute(t, self.counters, &stamp);
        // The task's clock close: a node's successor release falls in the
        // next gap, never in the task span.
        anchor = stamp;
    };

    // Steal-latency metric: the span from a worker's first empty probe to
    // its next acquired task (by pop, steal or global queue) — the
    // per-episode cost of running dry, as a distribution.  Armed-only clock
    // reads, one per episode boundary.
    clock::time_point search_t0{};
    auto note_acquired = [&] {
        if (search_t0 != clock::time_point{}) {
            steal_latency_hist().record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    clock::now() - search_t0)
                    .count()));
            search_t0 = clock::time_point{};
        }
    };

    std::size_t idle_rounds = 0;
    while (true) {
        if (task_base* t = find_work(self)) {
            note_acquired();
            run_traced(t);
            idle_rounds = 0;
            continue;
        }
        if (metrics::enabled() && search_t0 == clock::time_point{}) {
            search_t0 = clock::now();
        }
        if (trace::enabled()) {
            if (!in_gap) {
                in_gap = true;
                gap_parked = false;
                gap_sweeps = 0;
                gap_start = anchor != clock::time_point{}
                                ? trace::to_ns(anchor)
                                : trace::now_ns();
            }
            ++gap_sweeps;
        }
        if (shutdown_.load(amt::memory_order_acquire)) break;

        if (++idle_rounds < spin_rounds_before_sleep) {
            std::this_thread::yield();
            continue;
        }

        // Park.  Sample the epoch, enter the sleeper gate, and probe once
        // more: a poster that published before our gate entry is seen by
        // this probe, and one that published after it sees the gate and
        // bumps the epoch, so the wait below is skipped or woken.
        std::uint64_t seen;
        {
            std::lock_guard lk(sleep_mu_);
            seen = epoch_;
        }
        sleepers_.enter();
        if (task_base* t = find_work(self)) {
            sleepers_.leave();
            note_acquired();
            run_traced(t);
            idle_rounds = 0;
            continue;
        }
        if (shutdown_.load(amt::memory_order_acquire)) {
            sleepers_.leave();
            break;
        }
        {
            std::unique_lock lk(sleep_mu_);
            if (epoch_ == seen && !shutdown_.load(amt::memory_order_acquire)) {
                if (in_gap) gap_parked = true;
                // Bounded wait as a belt-and-braces recovery for the rare
                // case of a steal that failed spuriously under contention.
                sleep_cv_.wait_for(lk, std::chrono::milliseconds(2));
            }
        }
        sleepers_.leave();
        idle_rounds = 0;
    }
    if (in_gap) close_gap(trace::now_ns());

    tls_record = nullptr;
    tls_worker = current_worker_info{};
}

bool runtime::try_run_one() {
    if (tls_worker.rt == this) {
        worker& self = *workers_[tls_worker.index];
        if (task_base* t = find_work(self)) {
            execute(t, self.counters);
            return true;
        }
        return false;
    }
    // External thread: poll the global queue, then steal.
    task_base* t = try_pop_global();
    if (t == nullptr) {
        std::uint64_t rng =
            0xD1B54A32D192ED03ULL ^
            static_cast<std::uint64_t>(
                std::hash<std::thread::id>{}(std::this_thread::get_id()));
        if (rng == 0) rng = 1;
        t = try_steal(workers_.size(), rng);  // self_index out of range: steal from anyone
    }
    if (t == nullptr) return false;
    worker_counters local{};
    worker_counters* const outer = tls_record;
    tls_record = &local;
    execute(t, local);
    tls_record = outer;
    {
        std::lock_guard lk(external_mu_);
        external_counters_.tasks_started.add(local.tasks_started.load());
        external_counters_.tasks_executed.add(local.tasks_executed.load());
        external_counters_.productive_ns.add(local.productive_ns.load());
    }
    return true;
}

counters_snapshot runtime::snapshot_counters() const {
    counters_snapshot s;
    s.num_workers = workers_.size();
    for (const auto& w : workers_) {
        const worker_counters::task_counts n = w->counters.counts();
        s.tasks_started += n.started;
        s.tasks_executed += n.finished;
        s.steals += w->counters.steals.load();
        s.steal_attempts += w->counters.steal_attempts.load();
        s.productive_ns += w->counters.productive_ns.load();
        s.steals_same_domain += w->counters.steals_same_domain.load();
        s.steals_cross_domain += w->counters.steals_cross_domain.load();
    }
    {
        std::lock_guard lk(external_mu_);
        s.tasks_started += external_counters_.tasks_started.load();
        s.tasks_executed += external_counters_.tasks_executed.load();
        s.productive_ns += external_counters_.productive_ns.load();
    }
    s.wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_time_)
            .count());
    return s;
}

void runtime::reset_counters() {
    // Workers race with this only benignly (counter deltas may be attributed
    // to either window); reset is intended for use at quiescent points.
    for (auto& w : workers_) w->counters.reset();
    {
        std::lock_guard lk(external_mu_);
        external_counters_.reset();
    }
    start_time_ = clock::now();
}

}  // namespace amt
