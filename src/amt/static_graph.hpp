// amt/static_graph.hpp
//
// A compiled, replayable task graph: the allocation side of the paper's T6
// trick taken to its end point.  Where amt::async / when_all build a fresh
// web of heap-allocated tasks, shared states and continuation nodes every
// iteration, a static_graph is compiled ONCE — nodes live in
// arena-style storage (a std::deque of recycled node objects), dependency
// edges are flattened into a CSR successor table, and readiness is tracked
// by per-node generation counters — and then *replayed*: arm() resets every
// counter, start() posts the roots, and the same node objects flow through
// the scheduler again.  A steady-state replay iteration performs zero heap
// allocations (tests/amt/test_alloc_count.cpp proves this end to end).
//
// Lifecycle:    compile (add_node/add_edge) → seal → [arm → start → wait]*
//
//   * add_node/add_edge — build the topology.  Bodies are plain nullary
//     callables; labels/args feed the tracer (trace::annotate_task).
//   * seal() — freezes the topology: computes initial dependency counts,
//     the CSR successor table and the root set.  No further structural
//     changes are allowed.
//   * arm(rt) — re-arms every node for one replay: remaining := initial
//     deps + external deps, pending := node count, stop/error cleared,
//     generation += 1.  Must only be called when the graph is quiescent
//     (before the first start() or after wait() returned).
//   * set_external_deps(id, n) — adds n dependencies satisfied by calls to
//     satisfy_external(id) rather than by graph nodes (e.g. checkpoint
//     pack tasks that overlap the iteration).  Consumed by the next arm()
//     and then reset to zero: external gating is per-replay opt-in.
//   * start() — posts every root whose armed dependency count is zero.
//     Roots gated by external deps are posted by satisfy_external().
//   * wait() — blocks until ALL nodes completed (cooperatively running
//     tasks when called from a worker thread), then rethrows the first
//     body exception, if any.  wait_for(timeout) is the bounded form for
//     callers that poll (a progress deadline); it reports whether the
//     replay drained, and wait() still closes the replay.
//
// Error/stop semantics: a body exception (or request_stop()) flips the
// graph's stop flag.  Remaining nodes still *complete* — they are posted,
// counted and finish the graph — but their bodies are skipped.  The graph
// therefore always drains fully and is immediately re-armable; the next
// arm() starts from fresh stop state (re-armed tasks observe no stale
// cancellation).  fail(id, e) records a failure that happened outside the
// graph (a message that will never arrive) as if node `id` had thrown, and
// the error hook lets the owner react to every failure on the failing
// thread — e.g. close a message fabric so that the external dependencies a
// stopped peer will never satisfy resolve instead of hanging the replay.
//
// Ownership: nodes are task_base subclasses constructed NOT scheduler-owned
// — the scheduler executes them but never deletes them (see task.hpp).
// The graph must outlive any in-flight replay; wait() is the sync point.

#pragma once

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "amt/atomic.hpp"
#include "amt/scheduler.hpp"
#include "amt/task.hpp"
#include "amt/unique_function.hpp"

namespace amt {

class static_graph {
public:
    using node_id = std::uint32_t;

    static_graph() = default;
    static_graph(const static_graph&) = delete;
    static_graph& operator=(const static_graph&) = delete;
    ~static_graph();

    /// Compile phase.  `label`/`arg` become the trace span annotation.
    node_id add_node(unique_function<void()> body, const char* label = "node",
                     std::int32_t arg = -1);
    void add_edge(node_id from, node_id to);
    void seal();

    [[nodiscard]] bool sealed() const noexcept { return sealed_; }
    [[nodiscard]] std::size_t node_count() const noexcept {
        return nodes_.size();
    }
    [[nodiscard]] std::size_t edge_count() const noexcept {
        return sealed_ ? succ_.size() : edges_.size();
    }

    /// Replay protocol — see the file comment for ordering rules.
    void set_external_deps(node_id id, std::uint32_t count);
    void satisfy_external(node_id id);
    void arm(runtime& rt);
    void start();
    void wait();
    /// Waits at most `timeout` for every node to complete; true when the
    /// replay drained.  Does not end the replay: wait() must follow.
    [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout);

    /// Records `e` against node `id` as if its body had thrown: the stop
    /// flag is set, the first error is what wait() rethrows, and the error
    /// hook runs.  Satisfies nothing — a failed external dependency is
    /// still owed its satisfy_external().
    void fail(node_id id, std::exception_ptr e) noexcept;

    /// Runs on the failing thread after every recorded error (body
    /// exception or fail()), once the stop flag is set and outside every
    /// lock of the graph, so it may call fail() and satisfy_external().
    /// Set while quiescent.
    void set_error_hook(
        unique_function<void(node_id, const std::exception_ptr&)> hook) {
        error_hook_ = std::move(hook);
    }

    /// arm + start + wait in one call (no external deps in flight).
    void run(runtime& rt) {
        arm(rt);
        start();
        wait();
    }

    /// Cooperative cancellation: remaining bodies in the current replay are
    /// skipped (their nodes still complete, so wait() returns).  Cleared by
    /// the next arm().
    void request_stop() noexcept {
        stop_.store(true, amt::memory_order_release);
    }
    [[nodiscard]] bool stop_requested() const noexcept {
        return stop_.load(amt::memory_order_acquire);
    }

    /// Number of completed arm() calls (the replay generation).
    [[nodiscard]] std::uint64_t generation() const noexcept {
        return generation_;
    }

    /// Per-node wall-time profiling for the critical-path analyzer
    /// (amt/graph_profile.hpp).  While enabled, every profiled body run adds
    /// its steady_clock duration to the node's accumulator; recycled nodes
    /// therefore integrate cost across replays and the mean converges as
    /// iterations accumulate.  Toggle and read only while quiescent (same
    /// rule as arm()); the two clock reads per node are the entire armed
    /// cost, priced by bench/metrics_overhead.
    void set_profiling(bool on) noexcept { profiling_ = on; }
    [[nodiscard]] bool profiling() const noexcept { return profiling_; }
    /// Accumulated body nanoseconds / number of profiled runs for one node.
    [[nodiscard]] std::uint64_t node_time_ns(node_id id) const;
    [[nodiscard]] std::uint64_t node_timed_runs(node_id id) const;
    /// Zeroes every node's accumulator (quiescent only), so one profile
    /// window can exclude warm-up replays.
    void reset_node_times();

    /// Introspection for audits/tests; call only while quiescent.
    /// `executions(id)` counts successful body runs across all replays — on
    /// a healthy graph it equals generation() for every node, which is the
    /// re-arm invariant the compiled-form auditor checks.
    [[nodiscard]] std::uint64_t executions(node_id id) const;
    [[nodiscard]] std::uint32_t dependency_count(node_id id) const;
    [[nodiscard]] std::vector<node_id> successors(node_id id) const;
    [[nodiscard]] const char* node_label(node_id id) const;
    [[nodiscard]] std::int32_t node_arg(node_id id) const;
    [[nodiscard]] bool has_edge(node_id from, node_id to) const;

private:
    struct node final : task_base {
        node() : task_base(/*scheduler_owned=*/false) {}
        static_graph* graph = nullptr;
        node_id id = 0;
        unique_function<void()> body;
        const char* name = "node";
        std::int32_t arg = -1;
        std::uint32_t init_deps = 0;   ///< edges into this node (seal())
        std::uint32_t ext_deps = 0;    ///< pending set_external_deps value
        std::uint32_t armed_ext = 0;   ///< external deps of the current replay
        std::uint32_t succ_begin = 0;  ///< CSR range into static_graph::succ_
        std::uint32_t succ_count = 0;
        amt::atomic<std::uint32_t> remaining{0};
        std::uint64_t execs = 0;  ///< successful body runs (see executions())
        // Profiling accumulators: written only by the single worker running
        // this node (one task is never in flight twice), read quiescent.
        std::uint64_t accum_ns = 0;
        std::uint64_t timed_runs = 0;

        void execute() noexcept override;
    };

    void on_complete(node& n) noexcept;
    void finish_graph() noexcept;

    // Node storage: deque for stable addresses while growing (nodes are
    // posted to the scheduler by pointer).
    std::deque<node> nodes_;
    std::vector<std::pair<node_id, node_id>> edges_;  // pre-seal only
    std::vector<node_id> succ_;                       // CSR post-seal
    std::vector<node_id> roots_;                      // init_deps == 0
    bool sealed_ = false;
    bool armed_ = false;
    bool profiling_ = false;  ///< mutated quiescent, read by node::execute
    std::uint64_t generation_ = 0;
    runtime* rt_ = nullptr;

    amt::atomic<bool> stop_{false};
    amt::atomic<std::size_t> pending_{0};

    std::mutex gate_mu_;
    std::condition_variable gate_cv_;
    bool done_ = true;

    std::mutex err_mu_;
    std::exception_ptr error_;
    unique_function<void(node_id, const std::exception_ptr&)> error_hook_;
};

}  // namespace amt
