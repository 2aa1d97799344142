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
//       remain (a slab's halo sends add continuation edges);
//   T3  consecutive small kernels are fused into single task bodies,
//       keeping their loops separate inside the body: one task per chunk
//       per wave (gather + accel + BC + velocity + position per node
//       chunk; kinematics + volume update per element chunk; monotonic Q
//       + EOS + dt partial per region chunk);
//   T4  independent kernel groups run concurrently: stress-force and
//       hourglass-force tasks are launched together, and all regions' EOS
//       pipelines are launched together (this is where the region load
//       imbalance gets absorbed by work stealing);
//   T5  temporaries are task-local (sigma values and hourglass scratch
//       per element block, EOS values in registers, so the graph holds no
//       EOS scratch) instead of mesh-sized global buffers;
//   T6  all tasks of an iteration are created up front: the iteration
//       table (core/access) is compiled once into a static graph
//       (core/compiled_iteration) that every advance() replays through
//       graph::replay, and the driver blocks exactly once per iteration,
//       at the end.
//
// The driver advances a slab set: a list of slab domains plus the channel
// boundaries between them.  A lone domain is the set of one slab and no
// boundary; a dist::cluster — the paper's future-work direction, z-slabs
// exchanging halos through channels — is the set of its slabs and
// boundaries.  Both advance() overloads run one private advance over the
// set, compiling every slab's table into ONE static graph.  A lone domain
// has no neighbour, so its table holds no halo or liveness task and its
// advance posts no receive; nothing else tells the two apart.
//
// Around the replay the driver keeps:
//   * the opt-in per-task instrumentation (AMT_HAZARD_TRACK,
//     LULESH_NAN_SCAN), for every slab;
//   * the iteration_barrier span, node profiling, and the per-phase
//     profile with the tracer's phase windows;
//   * the halo fabric: the fault-site labels and the failure detector,
//     the send and liveness nodes and the receive chains, the progress
//     deadline and the retry wait, and the error hook with its root-cause
//     selection.
//
// Two exchange modes contrast the paper's future-work hypothesis; they
// compile the same slab tables by the same rule and differ only in
// synchronization:
//
//   futurized        — per-slab barriers: a send node fires once the tasks
//                      producing its plane finish, and each slab's next
//                      wave is gated on its own barrier plus its neighbors'
//                      messages (external dependencies satisfied by the
//                      channel receive chains), so slabs overlap freely
//                      (the "asynchronous mechanisms of HPX" style).
//   bulk_synchronous — one barrier per wave shared by all slabs: no slab
//                      starts a wave before every slab finished the
//                      previous one and every message of it arrived (the
//                      "mostly synchronous data exchange mechanisms of
//                      MPI" style).
//
// Both modes produce results bitwise identical to the serial driver.
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
//       compiled_iteration::reduce_constraints min-reduces the partials)

#pragma once

#include <array>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "core/compiled_iteration.hpp"
#include "core/graph_waves.hpp"
#include "dist/cluster.hpp"
#include "dist/failure_detector.hpp"
#include "dist/retry_policy.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

/// Accumulated wall time per iteration phase of the task graph, measured at
/// the barrier-completion instants of slab 0 (or of the barrier set every
/// slab shares), so a phase's time includes its tasks plus any scheduling
/// gaps before the barrier resolves; the last phase runs from the driver
/// thread's resume after the graph finished to the end of its dt
/// reduction, so the latency of waking the driver is in no phase.
/// Supports the per-phase analysis behind the paper's Table I (separate
/// partition sizes for LagrangeNodal vs LagrangeElements).
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
    enum class exchange_mode { futurized, bulk_synchronous };

    /// The runtime is borrowed; it must outlive the driver.
    ///
    /// `halo_timeout` > 0 arms a progress deadline on the exchanges: if no
    /// task of the iteration finishes for a whole timeout window while the
    /// graph is pending, the halo fabric is failed (channels closed) and
    /// the iteration aborts with status::stalled instead of waiting forever
    /// on a peer that will never send.  With a timeout armed the failure
    /// detector's per-slab heartbeats name the suspect slab in
    /// last_failure().
    ///
    /// `retry` (when enabled) arms the transient-fault retry layer on the
    /// exchanges: every boundary send parks a pristine copy in the
    /// boundary's retransmit cache, a CRC-corrupt delivery triggers a
    /// backed-off resend-request round-trip, and a dropped (fault-injected)
    /// message is re-delivered by the driver's wait loop — bounded by
    /// retry_policy::max_attempts before the failure escalates.  With
    /// retry on and no timeout, a 2 s deadline applies.  Disabled (the
    /// default), the send/receive paths are exactly the fail-stop ones.
    ///
    /// With neither, an advance takes the plain wait.
    taskgraph_driver(amt::runtime& rt, partition_sizes parts,
                     exchange_mode mode = exchange_mode::futurized,
                     std::chrono::milliseconds halo_timeout =
                         std::chrono::milliseconds(0),
                     dist::retry_policy retry = dist::retry_policy::none());

    taskgraph_driver(const taskgraph_driver&) = delete;
    taskgraph_driver& operator=(const taskgraph_driver&) = delete;

    /// "taskgraph", or "taskgraph_bsp" in bulk-synchronous mode.
    [[nodiscard]] std::string name() const override;

    /// One leapfrog iteration of a lone domain.
    void advance(domain& d) override;

    /// One global leapfrog iteration: all slabs advance, constraints are
    /// min-reduced across slabs and written back to every slab
    /// (compiled_iteration::reduce_constraints).  Throws simulation_error
    /// on volume/qstop violations in any slab (compiled_iteration::check).
    void advance(dist::cluster& c);

    /// Number of internal barriers per iteration.
    static constexpr int num_barriers = 4;

    [[nodiscard]] amt::runtime& runtime() noexcept { return rt_; }
    [[nodiscard]] partition_sizes partitions() const noexcept {
        return cfg_.parts;
    }

    /// The compiled iteration (null until the first advance compiled
    /// it).  Exposed for the critical-path analyzer and the regression
    /// tests.
    [[nodiscard]] const graph::compiled_iteration* compiled() const noexcept {
        return replay_.compiled();
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
        if (on && replay_.compiled() != nullptr) {
            replay_.compiled()->graph().reset_node_times();
        }
    }

    /// Enables per-task instrumentation of every slab for subsequent
    /// advances: hazard tracking (dynamic shadow-epoch scopes over declared
    /// access sets) and/or NaN scanning of written ranges.  Also enabled
    /// automatically by the AMT_HAZARD_TRACK / LULESH_NAN_SCAN environment
    /// variables.
    void enable_instrumentation(bool track_hazards, bool scan_nan);

    /// Accepts a capture of slab `slab`'s state for overlapped packing by
    /// tasks of the *next* advance() (graph::replay::submit_capture):
    /// node-field packs gate the slab's B1 (before its node wave writes
    /// coordinates and velocities), the v pack its B2 (before its element
    /// wave's volume update), the other element-field packs its B3 (waves
    /// 1-3 write no other checkpointed element field) — the placement
    /// graph::audit_slabs audits.  The capture is held only weakly: the
    /// caller keeps it and finalizes it (pack_remaining, wait_packed)
    /// before it touches the slab.  Declines (returns false, the caller
    /// packs synchronously) on a single-worker runtime; if the next
    /// advance() runs on a different domain the capture is packed on the
    /// spot.
    bool submit_overlapped_capture(index_t slab,
                                   std::shared_ptr<state_capture> cap);
    /// The same for a lone domain (slab 0).
    bool submit_overlapped_capture(
        std::shared_ptr<state_capture> cap) override {
        return submit_overlapped_capture(0, std::move(cap));
    }

    /// The retry policy the exchange layer runs under.
    [[nodiscard]] const dist::retry_policy& retry() const noexcept {
        return retry_;
    }

    /// Diagnosis of the last advance() that threw: slab attribution, mapped
    /// status, transience.  Reset at the start of every advance().
    [[nodiscard]] const dist::slab_failure& last_failure() const noexcept {
        return last_failure_;
    }

    /// Re-delivers the cached copy of one message of boundary `b`, whose
    /// channels are `bc` (recovery plumbing; public for the receive-retry
    /// chain and tests).  With `force` false, only an in-flight (packed >
    /// sent), overdue, within-budget message is resent — the wait loop's
    /// drop recovery.  With `force` true the delivered/overdue checks are
    /// skipped: the receiver found the delivered copy corrupt and asks for
    /// a fresh one.  The resend passes the same halo_drop/halo_corrupt
    /// fault sites as the original send, so unbounded injection plans
    /// exhaust the retry budget deterministically.  Returns true if a
    /// message entered the channel.
    bool resend_from_cache(dist::boundary_channels& bc, index_t b,
                           dist::halo_stream which, bool force);

private:
    /// The one advance over slabs_ and bounds_.
    void advance_slabs();

    /// Resolves the environment opt-in once, unless
    /// enable_instrumentation() decided first.
    void prepare_instrumentation();

    /// (Re)builds the per-boundary fault-site labels, the per-slab
    /// kill-switch labels and the failure detector for the bound set's
    /// topology.  The label strings are stable for the topology — fault
    /// plans compare site strings by content, and the tracer requires
    /// outliving storage.
    void ensure_fabric();

    /// Polls the pending graph under the progress deadline: resends
    /// overdue messages when retry is on, and fails the fabric (naming the
    /// detector's suspect) after a deadline's worth of zero progress.
    /// Returns true when it timed out.
    bool wait_with_deadline(graph::compiled_iteration& ci,
                            index_t& suspect_slab);

    /// Throws the iteration's root cause, recording it in last_failure_: a
    /// slab's own failure beats the channel_closed cascade it triggered in
    /// its peers.
    void rethrow_root_cause(bool timed_out, index_t suspect_slab);

    /// Books the phase windows of the replay that started at `t0`.
    void book_phases(const graph::compiled_iteration& ci,
                     amt::clock::time_point t0,
                     amt::clock::time_point resumed, bool tracing);

    /// Body of the compiled graph's halo nodes: sends and the per-slab
    /// liveness node.
    void halo_step(std::size_t slab, const graph::task_decl& t);

    /// Packs and sends one boundary plane, routing through the retransmit
    /// cache and the halo_drop/halo_corrupt fault sites when retry is on.
    void send_halo(index_t s, bool upper, bool corner);

    /// Chains the receive of one incoming boundary message (the external
    /// dependency `e` of the compiled graph): unpacks it into the slab's
    /// ghost plane, then satisfies the gate — after failing it when the
    /// message cannot arrive.  When retry is enabled a CRC-corrupt
    /// delivery requests a backed-off resend (bounded by the policy)
    /// before the error escalates.
    void receive_halo(const graph::compiled_iteration::external& e);

    amt::runtime& rt_;
    graph::replay replay_{rt_};
    /// The partitions and the instrumentation, which is resolved from the
    /// environment at the first advance() unless enable_instrumentation()
    /// decided first.
    graph::compiled_iteration::config cfg_;
    bool instrumentation_checked_ = false;
    exchange_mode mode_;
    std::chrono::milliseconds halo_timeout_{0};
    dist::retry_policy retry_;

    /// The bound slab set: slabs in z order, boundary b joining slab b and
    /// slab b + 1 (none for a lone domain).
    std::vector<domain*> slabs_;
    std::vector<dist::boundary_channels*> bounds_;

    /// Per-boundary fault-injection site labels, e.g. "halo_drop:corner_up:2"
    /// = drop the corner_up message of boundary 2 (see docs/resilience.md).
    struct halo_labels {
        std::string drop[dist::num_halo_streams];
        std::string corrupt[dist::num_halo_streams];
    };
    std::vector<halo_labels> labels_;
    std::vector<std::string> kill_labels_;  ///< "slab_kill:<s>" per slab
    std::shared_ptr<dist::failure_detector> detector_;
    dist::slab_failure last_failure_;

    /// What the driver adds to the slabs' graph: its barrier sharing, the
    /// halo nodes' body (halo_step) and the error hook below.
    graph::compiled_iteration::fabric fabric_;
    /// First failure of each slab in the running advance(), filed by the
    /// graph's error hook.
    std::mutex errors_mu_;
    std::vector<std::exception_ptr> errors_;

    std::size_t tasks_last_iteration_ = 0;
    phase_profile profile_{};
};

}  // namespace lulesh
