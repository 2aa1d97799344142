// core/compiled_iteration.hpp
//
// One leapfrog iteration compiled into a reusable amt::static_graph — the
// end point of the paper's T6 trick.  The compiler walks the table of
// every slab of a slab set (core/access.hpp: build_iteration_table; a
// lone domain is the set of one) and turns every task into a node, its
// edges, or an external dependency; it is the only place the iteration's
// graph is wired.  The graph is compiled ONCE per table shape and then
// *replayed*: arm() points each slab at its domain, re-arms the generation
// counters, resets the constraint partials, the error flags and the
// stamps, and the very same node objects flow through the scheduler
// again.  Steady-state replay iterations perform
// zero heap allocations (tests/amt/test_alloc_count.cpp).
//
// graph::replay (below) is what the taskgraph driver does around that
// graph: it keeps the compiled iteration, recompiles it when the slabs or
// the config no longer fit, binds the slabs, hands each slab its pending
// checkpoint capture and arms the graph.
//
// Per slab, one task per chunk per wave (T3), each running its chunk's
// kernels in sequence:
//
//   wave 1  force:       stress ∥ hourglass per element chunk    → B1
//   wave 2  node:        gather + velpos per node chunk          → B2
//   wave 3  elem:        kinematics + volume update per chunk    → B3
//   wave 4  region_eos:  monoq + EOS + dt partial per
//                        (region, chunk), one slot each          → B4
//
// After B4, reduce_constraints() min-reduces the dt partials of every
// slab and writes the result to every bound slab, and check() turns the
// flags the tasks raised into the iteration's verdict.  A task with no
// in-stage predecessor hangs off the previous barrier, every node feeds
// its own stage's barrier, and the barriers chain B1 → … → B4.  Barrier
// bodies stamp the phase-completion instants (phase_profile, the tracer's
// phase windows).
//
// The halo tasks of a slab with neighbours compile by one rule:
//   * a send (pack_corner, pack_delv) is a node running the driver's halo
//     handler, gated on exactly its table deps — the producers of its
//     plane — and feeding its stage's barrier;
//   * a receive (unpack_*) is an external dependency of its stage's
//     barrier, satisfied by the driver's receive chain (externals());
//   * the slab's liveness task is a stage-0 root node running the halo
//     handler and feeding B1.
// The exchange modes differ only in the number of barrier sets: one per
// slab (futurized), or one set shared by every slab (bulk-synchronous),
// so a wave starts only once every slab finished the previous one and
// every message of that stage arrived.
//
// Overlapped checkpoint packs are external dependencies as well:
// node-field packs gate B1, the v pack B2 and the other element-field
// packs B3 — the placement add_checkpoint_pack_tasks models for the audit.
//
// Placement: every wave-body node gets a home worker at compile time —
// the runtime's workers split the slab's element (or node) range into
// equal contiguous parts, and a chunk's home is the part holding its first
// element (a region chunk: its first list element).  The graph posts each
// ready node to its home (amt::static_graph, runtime::post_to), so the
// waves over one part of the mesh keep running on one worker's cache.  The
// home is a hint from the table and rt.num_workers() alone: it changes
// where a node runs, never its arithmetic, and is not part of the key.
//
// The graph is keyed by table shape, never by a domain's address: bodies
// read the domain, its region lists and the step through the binding, so a
// replaced domain of the same shape — a re-emplaced domain, a rebuilt
// slab, the next cluster of a benchmark — replays the same graph.
//
// Task-local temporaries (T5): a region task's EOS keeps its work values in
// registers (kernels::eval_eos_chunk), so the graph holds no EOS scratch
// and a replay allocates nothing.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "amt/amt.hpp"
#include "amt/atomic.hpp"
#include "amt/hazard.hpp"
#include "core/access.hpp"
#include "core/graph_waves.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/options.hpp"

namespace lulesh {
class state_capture;
}  // namespace lulesh

namespace lulesh::graph {

class compiled_iteration {
public:
    static constexpr std::size_t num_barriers = 4;
    using node_id = amt::static_graph::node_id;

    /// What keys the graph besides the slabs' shapes: the partition sizes
    /// and the opt-in per-task instrumentation (the hazard tracker's scopes,
    /// the NaN scan of every written range), for every slab.
    struct config {
        partition_sizes parts;
        bool track_hazards = false;
        bool scan_nan = false;
    };

    /// What a driver adds to its slabs' graph: whether every slab shares
    /// one barrier set (bulk-synchronous) instead of one set per slab, the
    /// body of its own nodes (sends and the slab_liveness node, called with
    /// the slab and its table task), and the hook called on the failing
    /// thread with the slab of every node that threw or was failed.
    struct fabric {
        bool shared_barriers = false;
        std::function<void(std::size_t slab, const task_decl& t)> halo;
        std::function<void(std::size_t slab, const std::exception_ptr& e)>
            on_failure;
    };

    /// A receive owed to the graph every replay: once the message of
    /// table task `task` of slab `slab` is unpacked — or has failed, after
    /// graph().fail(gate, e) — the driver calls satisfy_external(gate).
    struct external {
        std::size_t slab;
        const task_decl* task;
        node_id gate;
    };

    /// Compiles and seals the graph of every slab's build_iteration_table,
    /// whose shapes key it.
    compiled_iteration(amt::runtime& rt, std::span<domain* const> slabs,
                       const config& cfg, fabric fab);

    compiled_iteration(const compiled_iteration&) = delete;
    compiled_iteration& operator=(const compiled_iteration&) = delete;

    /// True when the graph was compiled under `cfg` for slabs of these
    /// shapes.  (A driver's fabric never changes, so it is not compared.)
    [[nodiscard]] bool fits(std::span<domain* const> slabs,
                            const config& cfg) const noexcept;

    /// Replay protocol (one iteration; graph::replay runs the first two):
    ///   [add_capture] → arm(slabs) → start → wait → reduce_constraints
    ///   → check.
    /// arm() binds slab i to slabs[i], runs the step at slab 0's deltatime
    /// and posts the pack tasks of the captures added since the last arm,
    /// each gating its slab's B1 (node fields), B2 (v) or B3 (the other
    /// element fields).
    void add_capture(std::size_t slab, std::shared_ptr<state_capture> cap);
    void arm(std::span<domain* const> slabs);
    void start() { graph_.start(); }
    void wait() { graph_.wait(); }
    [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) {
        return graph_.wait_for(timeout);
    }

    /// Min-reduces every slab's dt partials and writes the result
    /// (dtcourant, dthydro) to every bound slab.
    void reduce_constraints();
    /// The iteration's verdict: throws simulation_error on a non-positive
    /// volume, on q over qstop, on a non-finite write the NaN scan found
    /// (naming its field and wave) and on a hazard-tracker violation, in
    /// any slab.
    void check() const;

    [[nodiscard]] amt::static_graph& graph() noexcept { return graph_; }
    [[nodiscard]] const amt::static_graph& graph() const noexcept {
        return graph_;
    }

    /// Wave-body tasks per replay, excluding barriers and halo nodes.
    [[nodiscard]] std::size_t task_count() const noexcept {
        return task_count_;
    }
    /// dt partial slots of slab `slab` (one per region chunk).
    [[nodiscard]] std::size_t slot_count(std::size_t slab = 0) const noexcept {
        return slabs_[slab].partials.size();
    }
    /// Checkpoint pack tasks the last arm() posted.
    [[nodiscard]] std::size_t pack_count() const noexcept {
        return pack_count_;
    }
    /// Barrier-completion stamps of the last replay (B1..B4 of slab 0, or
    /// of the shared barriers).
    [[nodiscard]] const std::array<amt::clock::time_point, num_barriers>&
    stamps() const noexcept {
        return stamps_.front();
    }
    /// Completed replays (the graph generation).
    [[nodiscard]] std::uint64_t replays() const noexcept {
        return graph_.generation();
    }

    /// Stage of a wave-body node (the phase_profile index, 0 = force …
    /// 3 = region_eos), or -1 for barriers and halo nodes — the phase
    /// attribution the critical-path report groups by.
    [[nodiscard]] int node_stage(node_id id) const noexcept {
        return meta_[id].stage;
    }
    /// Barrier node id for wave `i` (0-based, B1..B4) of slab 0.
    [[nodiscard]] node_id barrier_id(std::size_t i) const noexcept {
        return barrier_.front()[i];
    }
    /// The node compiled from task `task` of slab `slab`'s table, or
    /// no_node when the task compiled to an external dependency.
    static constexpr node_id no_node = ~node_id{0};
    [[nodiscard]] node_id node_of(std::size_t slab,
                                  std::size_t task) const noexcept {
        return slabs_[slab].ids[task];
    }
    [[nodiscard]] const std::vector<external>& externals() const noexcept {
        return externals_;
    }

private:
    /// What a table depends on besides the partition sizes: counts,
    /// region sizes and neighbors — not region contents or addresses.
    struct table_shape {
        index_t elems = 0;
        index_t nodes = 0;
        index_t plane = 0;
        bool lower = false;
        bool upper = false;
        std::vector<index_t> region_sizes;
    };
    /// One task's declared accesses, built for the bound domain when the
    /// graph is instrumented (with the domain's hazard arena when tracking
    /// hazards).
    struct task_ctx {
        std::vector<access> accs;
        amt::hazard::access_set decl;  ///< accs expanded for the tracker
    };
    struct slab_state {
        graph_model table;
        body_env env;
        std::vector<kernels::dt_constraints> partials;
        table_shape shape;
        std::vector<node_id> ids;  ///< node per table task (or no_node)
        std::shared_ptr<state_capture> capture;
        std::vector<task_ctx> ctxs;  ///< instrumented only
        /// What ctxs' access sets point into: the domain and its region
        /// lists' storage when they were built (empty: not built yet).
        std::vector<const void*> ctxs_key;
    };
    struct node_meta {
        std::int8_t stage;
        std::uint32_t slab;
    };

    void compile();
    void build_access_sets(slab_state& sl);
    node_id add_node(amt::unique_function<void()> body, const char* label,
                     index_t arg, int stage, std::size_t slab,
                     std::uint32_t home = amt::static_graph::no_home);
    [[nodiscard]] std::uint32_t home_of(const task_decl& t,
                                        const domain& d) const;
    void run_task(std::uint32_t slab, std::uint32_t task);
    [[nodiscard]] std::size_t set_of(std::size_t slab) const noexcept {
        return barrier_.size() == 1 ? 0 : slab;
    }

    amt::runtime& rt_;
    config cfg_;
    fabric fabric_;
    bool instrumented_ = false;
    amt::static_graph graph_;
    std::vector<slab_state> slabs_;
    /// Barriers and their stamps per barrier set: one set per slab, or a
    /// single set shared by every slab.
    std::vector<std::array<node_id, num_barriers>> barrier_;
    std::vector<std::array<amt::clock::time_point, num_barriers>> stamps_;
    std::vector<std::array<std::uint32_t, num_barriers>> receives_;
    std::vector<std::array<std::uint32_t, num_barriers>> ext_;
    std::vector<external> externals_;
    std::vector<node_meta> meta_;
    std::size_t task_count_ = 0;
    std::size_t pack_count_ = 0;

    /// The flags the tasks raise, reset by arm() and read by check():
    /// cleared by a volume or qstop violation, and where the NaN scan
    /// found a non-finite write (static strings; any offender will do).
    amt::atomic<bool> volume_ok_{true};
    amt::atomic<bool> qstop_ok_{true};
    amt::atomic<const char*> nan_field_{nullptr};
    amt::atomic<const char*> nan_wave_{nullptr};
};

/// What every graph driver does around its compiled iteration.  The
/// iteration is compiled on the first arm() and again whenever the slabs'
/// shapes or the config stop fitting it; each slab's pending capture joins
/// the next replay.
class replay {
public:
    /// The runtime is borrowed; it must outlive the replay.
    explicit replay(amt::runtime& rt) : rt_(rt) {}

    /// Offers slab `slab`'s capture for packing by tasks of the next arm():
    /// node-field packs gate the slab's B1, the v pack its B2, the other
    /// element-field packs its B3.  Declines (false: the caller packs
    /// synchronously) on a one-worker runtime, where no idle worker can
    /// pack while another computes.  The capture is held weakly: the
    /// caller keeps it alive until it finalizes it (pack_remaining,
    /// wait_packed), and a capture released before the next arm() is
    /// simply skipped.
    bool submit_capture(std::size_t slab, std::shared_ptr<state_capture> cap);

    /// Compiles every slab's table unless the graph already fits them,
    /// binds every slab, gives each slab its pending capture — a capture of
    /// another domain is packed on the spot — and arms the graph at slab
    /// 0's deltatime.
    compiled_iteration& arm(std::span<domain* const> slabs,
                            const compiled_iteration::config& cfg,
                            const compiled_iteration::fabric& fab);

    /// The compiled iteration (null before the first arm()).
    [[nodiscard]] compiled_iteration* compiled() noexcept {
        return compiled_.get();
    }
    [[nodiscard]] const compiled_iteration* compiled() const noexcept {
        return compiled_.get();
    }

private:
    amt::runtime& rt_;
    std::unique_ptr<compiled_iteration> compiled_;
    std::vector<std::weak_ptr<state_capture>> captures_;
};

}  // namespace lulesh::graph
