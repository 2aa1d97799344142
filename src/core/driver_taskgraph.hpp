// core/driver_taskgraph.hpp
//
// The paper's primary contribution: a many-task LULESH driver that
// pre-creates the entire task graph of one leapfrog iteration on the amt
// runtime, applying the paper's optimization tricks:
//
//   T1  loops are manually partitioned into tasks of P consecutive
//       elements/nodes (partition_sizes, the Table I knobs);
//   T2  element-wise dependent kernels are chained per-partition with
//       continuations instead of global barriers (gather→accel→BC and
//       velocity→position chains; monotonic-Q→EOS chains per region);
//   T3  consecutive small kernels are fused into single task bodies,
//       keeping their loops separate inside the body;
//   T4  independent kernel groups run concurrently: stress-force and
//       hourglass-force tasks are launched together, and all regions' EOS
//       pipelines are launched together (this is where the region load
//       imbalance gets absorbed by work stealing);
//   T5  temporaries are task-local (sigma values, hourglass scratch, EOS
//       work arrays) instead of mesh-sized global buffers;
//   T6  all tasks of an iteration are created up front; the graph flows
//       through `when_all` barrier futures with stage-spawner continuations,
//       and the driver blocks exactly once per iteration, at the end.
//
// The iteration has 5 internal `when_all` synchronization points (the paper
// reports 7 for its decomposition; our slightly more aggressive fusion of
// the kinematics/gradients/clamp wave and of the error checks removes two
// without changing any dependence):
//   B1  after stress+hourglass corner forces (element → node transition)
//   B2  after position update (node → element transition)
//   B3  after kinematics/gradients (face-neighbor delv exchange)
//   B4  after region EOS chains + volume update (state complete)
//   B5  after constraint partials (min-reduction input complete)

#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "core/compiled_iteration.hpp"
#include "core/graph_waves.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

/// How the taskgraph driver realizes the iteration's task graph:
///
///   replay — the default: the graph is compiled once into an
///            amt::static_graph (core/compiled_iteration) and re-armed
///            every advance().  Steady-state iterations perform zero heap
///            allocations.
///   build  — the original T6 form: a fresh web of futures, when_all
///            barriers and stage-spawner continuations every iteration.
///            Kept as the ablation baseline (bench/micro_runtime's replay
///            gate measures the gap) and as the reference the replay
///            equivalence tests compare against bitwise.
enum class graph_mode { replay, build };

/// Accumulated wall time per iteration phase of the task graph, measured at
/// the barrier-completion instants (so a phase's time includes its tasks
/// plus any scheduling gaps before the barrier resolves).  Supports the
/// per-phase analysis behind the paper's Table I (separate partition sizes
/// for LagrangeNodal vs LagrangeElements).
struct phase_profile {
    enum phase : std::size_t {
        force = 0,        ///< wave 1: stress + hourglass corner forces
        node = 1,         ///< wave 2: gather/accel/BC + velocity/position
        elem = 2,         ///< wave 3: kinematics + gradients + clamps
        region_eos = 3,   ///< wave 4: monotonic Q + EOS + volume update
        constraints = 4,  ///< wave 5: dt constraint partials
        num_phases = 5
    };

    std::array<double, num_phases> seconds{};
    int iterations = 0;

    [[nodiscard]] double total() const {
        double t = 0;
        for (double s : seconds) t += s;
        return t;
    }
    /// Fraction of the profiled time spent in a phase.
    [[nodiscard]] double share(phase p) const {
        const double t = total();
        return t > 0 ? seconds[p] / t : 0.0;
    }

    static const char* name(std::size_t p) {
        constexpr const char* names[num_phases] = {
            "force", "node", "elem", "region_eos", "constraints"};
        return names[p];
    }
};

class taskgraph_driver final : public driver {
public:
    /// The runtime is borrowed; it must outlive the driver.
    taskgraph_driver(amt::runtime& rt, partition_sizes parts)
        : rt_(rt), parts_(parts) {}

    [[nodiscard]] std::string name() const override { return "taskgraph"; }
    void advance(domain& d) override;

    /// Number of internal when_all synchronization points per iteration.
    static constexpr int num_barriers = 5;

    [[nodiscard]] amt::runtime& runtime() noexcept { return rt_; }
    [[nodiscard]] partition_sizes partitions() const noexcept { return parts_; }

    /// Selects compiled-replay (default) or fresh-build execution for
    /// subsequent advances.  Switching modes is safe at any iteration
    /// boundary; both modes run the same wave_body kernels in the same
    /// order and produce bitwise-identical fields.
    void set_graph_mode(graph_mode m) noexcept { mode_ = m; }
    [[nodiscard]] graph_mode mode() const noexcept { return mode_; }

    /// The compiled iteration of the replay mode (null until the first
    /// replay advance compiled it).  Exposed for the compiled-form audit
    /// and the regression tests.
    [[nodiscard]] const graph::compiled_iteration* compiled() const noexcept {
        return compiled_.get();
    }

    /// Tasks created during the most recent advance() (for tests/benches).
    [[nodiscard]] std::size_t tasks_last_iteration() const noexcept {
        return tasks_last_iteration_;
    }

    /// Accumulated per-phase wall times since construction / reset.
    [[nodiscard]] const phase_profile& profile() const noexcept {
        return profile_;
    }
    void reset_profile() { profile_ = phase_profile{}; }

    /// Task start/finish counters shared with a watchdog.  The object is
    /// stable for the driver's lifetime (advance() resets the iteration
    /// scope but keeps the tracker), so a monitor can hold this pointer
    /// across the whole run.
    [[nodiscard]] std::shared_ptr<const graph::progress_state> progress()
        const noexcept {
        return flags_.progress;
    }

    /// Enables per-node wall-time profiling on the compiled graph for
    /// subsequent advances (replay mode only; part of the compiled shape,
    /// so flipping it recompiles).  Feeds the critical-path analyzer
    /// (core/critical_path.hpp) behind --critical-path-report.
    void enable_node_profiling(bool on) noexcept { profile_nodes_ = on; }
    [[nodiscard]] bool node_profiling() const noexcept {
        return profile_nodes_;
    }

    /// Enables per-task instrumentation for subsequent advances: hazard
    /// tracking (dynamic shadow-epoch scopes over declared access sets)
    /// and/or NaN scanning of written ranges.  Also enabled automatically
    /// by the AMT_HAZARD_TRACK / LULESH_NAN_SCAN environment variables.
    void enable_instrumentation(bool track_hazards, bool scan_nan);

    /// Reports the iteration's checkpointed write-set, derived once per
    /// domain shape from the declarative model (build_iteration_model):
    /// each write access on a checkpointed field collapses to a per-field
    /// span, so delta records cover exactly what an iteration can change.
    void record_dirty(dirty_tracker& t, const domain& d) const override;

    /// Accepts a capture for overlapped packing.  The pack jobs become
    /// ordinary graph tasks of the *next* advance(): node-field packs are
    /// joined into barrier B1 (before the node wave writes coordinates and
    /// velocities), element-field packs into B3 (waves 1-3 write no
    /// checkpointed element field).  Declines (returns false, the caller
    /// packs synchronously) on a single-worker runtime; if the next
    /// advance() runs on a different domain the capture is packed
    /// synchronously on the spot instead.
    bool submit_overlapped_capture(
        std::shared_ptr<state_capture> cap) override;

private:
    void prepare_instrumentation(domain& d);
    void advance_build(domain& d);
    void advance_replay(domain& d);

    /// Epilogue shared by both modes: phase profile + tracer windows from
    /// the barrier stamps, constraint combine, and the deferred error
    /// checks (volume/qstop/NaN/hazard).
    void finish_iteration(
        domain& d, amt::clock::time_point t0,
        const std::array<amt::clock::time_point,
                         phase_profile::num_phases>& stamps,
        const kernels::dt_constraints* partials, std::size_t num_slots,
        bool tracing);

    amt::runtime& rt_;
    partition_sizes parts_;
    graph_mode mode_ = graph_mode::replay;
    std::unique_ptr<graph::compiled_iteration> compiled_;
    graph::error_flags flags_;
    std::vector<kernels::dt_constraints> constraint_partials_;
    std::size_t tasks_last_iteration_ = 0;
    phase_profile profile_{};

    bool profile_nodes_ = false;
    bool instrumentation_checked_ = false;
    const domain* hazard_arena_for_ = nullptr;  ///< domain with a bound arena

    /// Capture handed over by submit_overlapped_capture(), consumed (its
    /// regions spawned as pack tasks) at the start of the next advance().
    std::shared_ptr<state_capture> pending_capture_;

    /// Per-field write spans of one iteration, derived from the model and
    /// cached by domain shape (record_dirty is called every iteration).
    mutable std::vector<dirty_region> write_set_;
    mutable index_t write_set_elems_ = -1;
    mutable index_t write_set_nodes_ = -1;
};

/// End-to-end audit of the compiled replay form: runs a short simulation
/// (two cycles, so the graph has been re-armed at least once) on a fresh
/// domain built from `o`, then checks the compiled graph against the
/// declarative model — per-task correspondence, every declared edge,
/// barrier wiring, and the re-arm invariant that every node executed once
/// per replay.  Returns "" on success, else a description of the failure.
/// `threads == 0` picks a small default.
std::string audit_compiled_replay(const options& o, partition_sizes parts,
                                  std::size_t threads);

}  // namespace lulesh
