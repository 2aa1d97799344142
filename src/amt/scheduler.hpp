// amt/scheduler.hpp
//
// The amt work-stealing task scheduler, modelled after HPX's default
// "priority local" scheduling policy (without priorities, which the paper
// explicitly does not use): every worker owns a private Chase-Lev deque and
// services it LIFO; idle workers steal FIFO from random victims, falling
// back to a global injection queue that receives tasks posted from
// non-worker threads.
//
// Homed posting (post_to, the compiled graph's entry point): a task may
// carry a home worker — a pure placement hint, the worker whose cache
// already holds the task's chunk.  Posted from its home it lands in the
// home's own deque; from anywhere else, including non-worker threads, in
// the home's lock-free mailbox (amt/mailbox.hpp).  Every work-finding path
// of a worker searches, in order: own deque, own mailbox, other workers'
// deques, other workers' mailboxes, the injection queue — so a busy home
// never strands its mail, and stealing stays the load balancer.
//
// Wakeups: a post fences and reads a parked-worker count (sleeper_gate);
// only when a worker may be parked does it take the wakeup lock and
// notify.  A worker announces itself in that count before its last probe,
// so either the poster sees it or its probe sees the task.
//
// The per-task seam: execute() is the one place a task is timed.  It
// stamps the task's start once, opens the executing worker's record
// (amt/counters.hpp) with it, and closes it once — the task may close it
// early through close_task_clock(), as a compiled-graph node does before
// releasing its successors; otherwise execute() closes it when the body
// returns.  That one interval feeds every per-task instrument: the
// record's productive time and task counts, the amt_task_duration_ns
// histogram, the trace's task span, and the node cost a compiled graph
// books.  The task's label (annotate_task) lives in the same record and
// names the task's trace span.
//
// Lifetime model: a `runtime` is an ordinary object.  Constructing one
// registers it as the *active* runtime (an ambient pointer used by the free
// functions amt::async / amt::post); destroying it waits for the workers to
// drain and unregisters it.  Benchmarks that sweep thread counts simply
// construct one runtime per configuration.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/config.hpp"
#include "amt/counters.hpp"
#include "amt/deque.hpp"
#include "amt/mailbox.hpp"
#include "amt/task.hpp"

namespace amt {

/// Enumerates steal victims for a thief at `self` among `n` workers grouped
/// into consecutive locality domains of `domain_size`: every same-domain
/// victim first (one rotated sweep starting at `rot_same`), then every
/// worker outside the thief's domain (rotated by `rot_cross`).  `self >= n`
/// means an external thread: no home domain, everything is a cross-domain
/// victim.  `visit(victim, same_domain)` returns true to stop the sweep (a
/// steal succeeded).  Exposed as a pure function so the victim order is
/// unit-testable; allocation-free by construction.
template <class Visit>
void for_each_steal_victim(std::size_t self, std::size_t n,
                           std::size_t domain_size, std::uint64_t rot_same,
                           std::uint64_t rot_cross, Visit&& visit) {
    if (n <= 1) return;
    const std::size_t ds = domain_size == 0 ? n : domain_size;
    const std::size_t dom_begin = self < n ? (self / ds) * ds : n;
    const std::size_t dom_end =
        dom_begin + ds < n ? dom_begin + ds : n;
    const std::size_t dn = dom_end > dom_begin ? dom_end - dom_begin : 0;
    if (dn > 1) {
        const std::size_t start =
            dom_begin + static_cast<std::size_t>(rot_same % dn);
        for (std::size_t k = 0; k < dn; ++k) {
            std::size_t v = start + k;
            if (v >= dom_end) v -= dn;
            if (v == self) continue;
            if (visit(v, true)) return;
        }
    }
    const std::size_t cn = n - dn;
    if (cn == 0) return;
    // The cross-domain victims are [0, dom_begin) ++ [dom_end, n); index
    // that virtual sequence with a rotated counter.
    const std::size_t start = static_cast<std::size_t>(rot_cross % cn);
    for (std::size_t k = 0; k < cn; ++k) {
        std::size_t j = start + k;
        if (j >= cn) j -= cn;
        const std::size_t v = j < dom_begin ? j : j + dn;
        if (visit(v, false)) return;
    }
}

class runtime {
public:
    /// Starts `num_workers` OS worker threads; 0 selects
    /// hardware_concurrency().
    explicit runtime(std::size_t num_workers = 0);

    runtime(const runtime&) = delete;
    runtime& operator=(const runtime&) = delete;

    /// Blocks until all queued tasks have run, then joins the workers.
    ~runtime();

    /// Submits a task for asynchronous execution.  Callable from any thread.
    /// From a worker thread the task goes to that worker's own deque (the
    /// cheap, common path for continuations); otherwise to the global
    /// injection queue.
    void post(task_ptr t);

    /// Submits a task the scheduler does NOT own — it is executed but never
    /// deleted — to its home worker `home`: that worker's own deque when
    /// called from it, its mailbox from any other thread.  `home` is a
    /// placement hint only; a home past num_workers() (static_graph's
    /// no_home) posts like post() does.  This is the replay path of
    /// compiled-graph nodes, recycled task objects whose storage belongs
    /// to their graph, and static_graph is its only caller.  The caller
    /// keeps `t` alive until it has executed.  Allocation-free: every
    /// queue it may land in is intrusive or preallocated.
    void post_to(task_base* t, std::size_t home);

    template <class F>
    void post_fn(F&& f) {
        post(make_task(std::forward<F>(f)));
    }

    [[nodiscard]] std::size_t num_workers() const noexcept {
        return workers_.size();
    }

    /// Locality-domain width for hierarchical work stealing: workers are
    /// grouped into consecutive domains of this many, and an idle worker
    /// sweeps same-domain victims before the rest (the NUMA-aware victim
    /// policy of HPX-style runtimes, scaled down to one process).  Domains
    /// of 4 when more than 4 workers exist, one flat domain otherwise.
    [[nodiscard]] std::size_t steal_domain_size() const noexcept {
        return domain_size_;
    }

    /// True when the calling thread is one of this runtime's workers.
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /// Executes at most one pending task on the calling thread.  Used by
    /// futures for cooperative waiting on worker threads.  Returns false if
    /// no runnable task was found.
    bool try_run_one();

    /// Aggregated counters since construction or the last reset_counters().
    /// Per worker, finished is read before started (worker_counters::
    /// counts), so tasks_executed never exceeds tasks_started.
    [[nodiscard]] counters_snapshot snapshot_counters() const;
    void reset_counters();

    /// The most recently constructed, still-alive runtime, or nullptr.
    /// Free functions (amt::async etc.) target this runtime.
    static runtime* active() noexcept;

private:
    struct worker;

    void worker_loop(worker& self);
    /// Own deque, own mailbox, other deques, other mailboxes, injection
    /// queue — the one search order of every work-finding path.
    task_base* find_work(worker& self);
    task_base* try_pop_global();
    /// Hierarchical steal sweep (same-domain victims first) over the other
    /// workers' deques — or, with `mail`, over their mailboxes, returning
    /// a whole taken chain.  On success `same_domain_out` (when non-null)
    /// reports which tier the victim was found in, for the
    /// steals_same_domain / steals_cross_domain counters.
    task_base* try_steal(std::size_t self_index, std::uint64_t& rng_state,
                         bool* same_domain_out = nullptr, bool mail = false);
    /// The common tail of every mailbox take: returns the oldest task of
    /// `chain` and pushes the others onto `self`'s deque, where they stay
    /// stealable.
    static task_base* split_chain(worker& self, task_base* chain);
    /// Own deque from a worker of this runtime, injection queue otherwise.
    void enqueue(task_base* raw);
    /// The poster's half of the wake protocol: wakes one parked worker
    /// when the sleeper gate shows one.
    void wake_one_if_parked();
    /// Runs one task on the record `c` of the calling thread (see the
    /// file comment).  `stamp` (optional, tracing only) carries the
    /// already-read task start time in and the task end time out, so the
    /// worker loop's gap spans and the task span share exact endpoints
    /// (no unattributed slivers between consecutive trace spans).
    void execute(task_base* raw, worker_counters& c,
                 clock::time_point* stamp = nullptr);

    struct alignas(cache_line_size) worker {
        explicit worker(std::size_t idx) : index(idx) {}
        std::size_t index;
        ws_deque queue;
        mailbox mail;
        worker_counters counters;
        std::uint64_t rng_state = 0;
        std::thread thread;
    };

    std::vector<std::unique_ptr<worker>> workers_;
    std::size_t domain_size_ = 1;  ///< steal_domain_size()

    // Global injection queue for tasks posted from non-worker threads:
    // an intrusive FIFO linked through task_base::qnext, so posting
    // allocates nothing (a plain container would allocate bookkeeping
    // nodes and break the zero-allocation replay guarantee).  Idle
    // workers read `global_pending_` before taking the lock, so an empty
    // queue costs them one shared load, not a lock round trip.
    std::mutex global_mu_;
    task_base* global_head_ = nullptr;
    task_base* global_tail_ = nullptr;
    alignas(cache_line_size) amt::atomic<bool> global_pending_{false};

    // Wakeup machinery.  `epoch_` increments on every wakeup a poster
    // sends; a worker that is about to park samples it, enters the sleeper
    // gate, probes once more and only waits while the epoch is unchanged,
    // which closes the lost-wakeup window.  Posters touch `sleep_mu_` only
    // when the gate shows a sleeper.
    sleeper_gate sleepers_;
    std::mutex sleep_mu_;
    std::condition_variable sleep_cv_;
    std::uint64_t epoch_ = 0;
    amt::atomic<bool> shutdown_{false};

    // Counters not owned by a specific worker: tasks executed cooperatively
    // by external threads inside future waits.
    worker_counters external_counters_;
    mutable std::mutex external_mu_;

    clock::time_point start_time_;

    static amt::atomic<runtime*> active_;
};

/// RAII helper: true while the calling thread is inside runtime::execute,
/// used to distinguish "worker executing a task" from "worker in scheduler
/// bookkeeping" for assertions and for nested-blocking decisions.
struct current_worker_info {
    runtime* rt = nullptr;
    std::size_t index = 0;
};

/// Worker context of the calling thread (nullptr runtime if not a worker).
const current_worker_info& current_worker() noexcept;

/// Labels the task executing on the calling thread: the record's in-flight
/// label, which names the task's trace span.  The first annotation wins, so a body that inlines further
/// completions keeps its own label.  Called by compiled-graph nodes with
/// their label and argument (the wave site and partition index), by
/// checkpoint pack tasks and by the foreach driver's chunks.  A no-op
/// outside runtime::execute.
void annotate_task(const char* name, std::int32_t arg) noexcept;

/// Closes the clock of the task executing on the calling thread and books
/// the interval (see the file comment); returns it in nanoseconds.  A
/// compiled-graph node calls this after its body, before it releases its
/// successors, so the release counts as scheduler time.  Returns 0 when
/// the clock is already closed or the caller runs outside
/// runtime::execute.
std::uint64_t close_task_clock() noexcept;

}  // namespace amt
