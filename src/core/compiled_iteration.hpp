// core/compiled_iteration.hpp
//
// One leapfrog iteration compiled into a reusable amt::static_graph — the
// end point of the paper's T6 trick.  The compiler walks a list of slab
// tables (core/access.hpp: build_iteration_table for the taskgraph
// driver, one build_slab_model table per slab for the dist driver) and
// turns every task into a node, its edges, or an external dependency; it
// is the only place the iteration's graph is wired.  The graph is compiled
// ONCE per table shape and then *replayed*: bind() points each slab at its
// domain, arm() re-arms the generation counters, resets the constraint
// partials and stamps, and the very same node objects flow through the
// scheduler again.  Steady-state replay iterations perform zero heap
// allocations (tests/amt/test_alloc_count.cpp).
//
// Per slab (the taskgraph driver compiles exactly one), one task per chunk
// per wave (T3), each running its chunk's kernels in sequence:
//
//   wave 1  force:       stress ∥ hourglass per element chunk    → B1
//   wave 2  node:        gather + velpos per node chunk          → B2
//   wave 3  elem:        kinematics + volume update per chunk    → B3
//   wave 4  region_eos:  monoq + EOS + dt partial per
//                        (region, chunk), one slot each          → B4
//
// The driver min-reduces the dt partials after B4.  A task with no
// in-stage predecessor hangs off the previous barrier, every node feeds
// its own stage's barrier, and the barriers chain B1 → … → B4.  Barrier
// bodies stamp the phase-completion instants (phase_profile, the tracer's
// phase windows).
//
// The halo tasks of a dist slab table:
//   * a send (pack_corner, pack_delv) is a node running the driver's halo
//     handler, gated on the producers of its plane (halo_gating::plane,
//     the eager exchange) or on every task of its wave (whole_wave), and
//     feeding its stage's barrier;
//   * a receive (unpack_*) is an external dependency of its stage's
//     barrier, satisfied by the driver's receive chain (externals());
//   * the slab's liveness task is a stage-0 root node running the halo
//     handler and feeding B1;
//   * under halo_gating::direct (bulk-synchronous) one barrier per stage
//     is shared by every slab, sends and the liveness task compile to
//     nothing (a direct exchange reads the neighbor's plane in place,
//     and a bulk-synchronous iteration arms no progress deadline), and
//     each receive is a direct exchange node between its stage's barrier
//     and its slab's next stage.
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
#include <functional>
#include <memory>
#include <vector>

#include "amt/amt.hpp"
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

    /// How a slab table's halo tasks compile (see the file comment).
    enum class halo_gating : std::uint8_t { whole_wave, plane, direct };

    struct config {
        partition_sizes parts;
        bool track_hazards = false;
        bool scan_nan = false;
    };

    /// Body of the driver's own nodes: sends, direct exchanges and the
    /// slab_liveness node, called with the slab and its table task.
    using halo_handler =
        std::function<void(std::size_t slab, const task_decl& t)>;

    /// A receive owed to the graph every replay: once the message of
    /// table task `task` of slab `slab` is unpacked — or has failed, after
    /// graph().fail(gate, e) — the driver calls satisfy_external(gate).
    struct external {
        std::size_t slab;
        const task_decl* task;
        node_id gate;
    };

    /// One slab's input: its compact table (access sets are built only
    /// when the sentinel is on) and the domain it is first bound to, whose
    /// shape keys the compiled graph.
    struct slab_table {
        graph_model table;
        domain* dom = nullptr;
    };

    /// Compiles, seals and binds the graph of `slabs`.  `flags` copies
    /// share state with the driver's, so the driver's volume/qstop/nan
    /// flags observe the replayed tasks.  `gating` and `halo` matter only
    /// to tables with halo tasks.
    compiled_iteration(amt::runtime& rt, std::vector<slab_table> slabs,
                       const config& cfg, const error_flags& flags,
                       halo_gating gating = halo_gating::whole_wave,
                       halo_handler halo = {});

    compiled_iteration(const compiled_iteration&) = delete;
    compiled_iteration& operator=(const compiled_iteration&) = delete;

    /// True when the graph was compiled for `slabs` tables under `cfg`
    /// and the same sentinel; shape_matches() checks each slab's domain.
    /// (A driver's halo gating never changes, so it is not compared.)
    [[nodiscard]] bool matches(const config& cfg, const error_flags& flags,
                               std::size_t slabs) const noexcept;
    [[nodiscard]] bool shape_matches(std::size_t slab,
                                     const domain& d) const noexcept;

    /// Replay protocol (one iteration):
    ///   bind (every slab) → [add_capture] → arm(dt) → start → wait.
    /// arm() posts the pack tasks of the captures added since the last
    /// arm, each gating its slab's B1 (node fields), B2 (v) or B3 (the
    /// other element fields).
    void bind(std::size_t slab, domain& d);
    void add_capture(std::size_t slab, std::shared_ptr<state_capture> cap);
    void arm(real_t dt);
    void start() { graph_.start(); }
    void wait() { graph_.wait(); }
    [[nodiscard]] bool wait_for(std::chrono::nanoseconds timeout) {
        return graph_.wait_for(timeout);
    }

    [[nodiscard]] amt::static_graph& graph() noexcept { return graph_; }
    [[nodiscard]] const amt::static_graph& graph() const noexcept {
        return graph_;
    }

    /// Wave-body tasks per replay, excluding barriers and halo nodes.
    [[nodiscard]] std::size_t task_count() const noexcept {
        return task_count_;
    }
    [[nodiscard]] std::size_t slot_count(std::size_t slab = 0) const noexcept {
        return slabs_[slab].partials.size();
    }
    [[nodiscard]] const kernels::dt_constraints* partials(
        std::size_t slab = 0) const noexcept {
        return slabs_[slab].partials.data();
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
    /// The slab a node belongs to (0 for the shared direct-mode barriers).
    [[nodiscard]] std::size_t slab_of(node_id id) const noexcept {
        return meta_[id].slab;
    }
    /// Barrier node id for wave `i` (0-based, B1..B4) of slab 0.
    [[nodiscard]] node_id barrier_id(std::size_t i) const noexcept {
        return barrier_.front()[i];
    }
    /// The node compiled from task `task` of slab `slab`'s table, or
    /// no_node when the task compiled to an external dependency or nothing.
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
    struct slab_state {
        graph_model table;
        body_env env;
        std::vector<kernels::dt_constraints> partials;
        table_shape shape;
        std::vector<node_id> ids;  ///< node per table task (or no_node)
        std::shared_ptr<state_capture> capture;
        std::vector<iteration_sentinel::task_ctx> ctxs;  ///< instrumented
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
    halo_gating gating_;
    error_flags flags_;  ///< shares state with the driver's flags
    halo_handler halo_;
    bool instrumented_ = false;
    amt::static_graph graph_;
    std::vector<slab_state> slabs_;
    /// Barriers and their stamps per barrier set: one set per slab, or a
    /// single shared set under halo_gating::direct.
    std::vector<std::array<node_id, num_barriers>> barrier_;
    std::vector<std::array<amt::clock::time_point, num_barriers>> stamps_;
    std::vector<std::array<std::uint32_t, num_barriers>> receives_;
    std::vector<std::array<std::uint32_t, num_barriers>> ext_;
    std::vector<external> externals_;
    std::vector<node_meta> meta_;
    std::size_t task_count_ = 0;
};

}  // namespace lulesh::graph
