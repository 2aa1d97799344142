// core/driver_taskgraph.hpp
//
// The paper's primary contribution: a many-task LULESH driver that
// pre-creates the entire task graph of one leapfrog iteration on the amt
// runtime, applying the paper's optimization tricks:
//
//   T1  loops are manually partitioned into tasks of P consecutive
//       elements/nodes (partition_sizes, the Table I knobs);
//   T2  element-wise dependent kernels are ordered within a partition's
//       task instead of by global barriers, so only the waves' barriers
//       remain (a dist slab's halo sends add continuation edges);
//   T3  consecutive small kernels are fused into single task bodies,
//       keeping their loops separate inside the body: one task per chunk
//       per wave (gather + accel + BC + velocity + position per node
//       chunk; kinematics + volume update per element chunk; monotonic Q
//       + EOS + dt partial per region chunk);
//   T4  independent kernel groups run concurrently: stress-force and
//       hourglass-force tasks are launched together, and all regions' EOS
//       pipelines are launched together (this is where the region load
//       imbalance gets absorbed by work stealing);
//   T5  temporaries are task-local (sigma values, hourglass scratch, EOS
//       work arrays in one scratch per worker) instead of mesh-sized
//       global buffers;
//   T6  all tasks of an iteration are created up front: the iteration
//       table (core/access) is compiled once into a static graph
//       (core/compiled_iteration) that every advance() re-arms and replays,
//       and the driver blocks exactly once per iteration, at the end.
//
// The iteration has 4 internal barrier nodes (the paper reports 7 for its
// decomposition; fusing the kinematics/gradients/clamp wave with the
// volume update, the error checks into their waves, and each region
// chunk's dt partial into its EOS task removes three without changing any
// dependence):
//   B1  after stress+hourglass corner forces (element → node transition)
//   B2  after position update (node → element transition)
//   B3  after kinematics/gradients and volume update (face-neighbor delv
//       exchange)
//   B4  after the region tasks' EOS and dt partials (state complete;
//       the driver min-reduces the partials)

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

/// Accumulated wall time per iteration phase of the task graph, measured at
/// the barrier-completion instants (so a phase's time includes its tasks
/// plus any scheduling gaps before the barrier resolves); the last phase
/// runs from the driver thread's resume after B4 to the end of its dt
/// reduction, so the latency of waking the driver is in no phase.  Supports
/// the per-phase analysis behind the paper's Table I (separate partition
/// sizes for LagrangeNodal vs LagrangeElements).
struct phase_profile {
    enum phase : std::size_t {
        force = 0,        ///< wave 1: stress + hourglass corner forces
        node = 1,         ///< wave 2: gather/accel/BC + velocity/position
        elem = 2,         ///< wave 3: kinematics + gradients + clamps +
                          ///< volume update
        region_eos = 3,   ///< wave 4: monotonic Q + EOS + dt partials
        constraints = 4,  ///< the driver's min-reduction of the dt
                          ///< partials, from its resume after B4
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

    /// Number of internal barriers per iteration.
    static constexpr int num_barriers = 4;

    [[nodiscard]] amt::runtime& runtime() noexcept { return rt_; }
    [[nodiscard]] partition_sizes partitions() const noexcept { return parts_; }

    /// The compiled iteration (null until the first advance compiled
    /// it).  Exposed for the critical-path analyzer and the regression
    /// tests.
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

    /// The compiled graph's nodes always book their costs (amt::
    /// static_graph) for the critical-path analyzer (core/critical_path.hpp)
    /// behind --critical-path-report.  `true` starts a fresh profile window:
    /// a report then covers only the replays since this call.  `false`
    /// lets the costs keep accumulating.  Neither recompiles the graph.
    void enable_node_profiling(bool on) noexcept {
        if (on && compiled_) compiled_->graph().reset_node_times();
    }

    /// Enables per-task instrumentation for subsequent advances: hazard
    /// tracking (dynamic shadow-epoch scopes over declared access sets)
    /// and/or NaN scanning of written ranges.  Also enabled automatically
    /// by the AMT_HAZARD_TRACK / LULESH_NAN_SCAN environment variables.
    void enable_instrumentation(bool track_hazards, bool scan_nan);

    /// Accepts a capture for overlapped packing.  The pack jobs become
    /// tasks of the *next* advance(), gating the compiled graph's barriers:
    /// node-field packs B1 (before the node wave writes coordinates and
    /// velocities), the v pack B2 (before the element wave's volume
    /// update), the other element-field packs B3 (waves 1-3 write no
    /// other checkpointed element field).  Declines (returns false, the caller
    /// packs synchronously) on a single-worker runtime; if the next
    /// advance() runs on a different domain the capture is packed
    /// synchronously on the spot instead.
    bool submit_overlapped_capture(
        std::shared_ptr<state_capture> cap) override;

private:
    void prepare_instrumentation(domain& d);

    amt::runtime& rt_;
    partition_sizes parts_;
    std::unique_ptr<graph::compiled_iteration> compiled_;
    graph::error_flags flags_;
    std::size_t tasks_last_iteration_ = 0;
    phase_profile profile_{};

    bool instrumentation_checked_ = false;
    const domain* hazard_arena_for_ = nullptr;  ///< domain with a bound arena

    /// Capture handed over by submit_overlapped_capture(), consumed (its
    /// regions gate the compiled graph) at the start of the next advance().
    std::shared_ptr<state_capture> pending_capture_;
};

}  // namespace lulesh
