// dist/driver_dist.hpp
//
// Multi-domain leapfrog driver: advances every slab of a cluster by one
// iteration, inserting halo exchanges between the task waves.  Every slab's
// table (dist/halo_audit: the iteration waves plus its halo tasks) is
// compiled into ONE static graph per cluster shape (core/compiled_iteration)
// and replayed every advance; a new cluster of the same shape rebinds it.
// Three exchange modes contrast the paper's future-work hypothesis:
//
//   futurized        — per-slab barriers; a send node fires once its wave
//                      has finished, and each slab's next wave is gated on
//                      its own barrier plus its neighbors' messages
//                      (external dependencies satisfied by the channel
//                      receive chains), so slabs overlap freely (the
//                      "asynchronous mechanisms of HPX" style).
//   eager            — futurized, but a send node is gated only on the
//                      tasks producing *its plane*, so a neighbor unblocks
//                      while this slab's interior is still computing —
//                      maximal communication/computation overlap.
//   bulk_synchronous — one barrier per wave shared by all slabs, with
//                      direct exchange nodes between the barriers (the
//                      "mostly synchronous data exchange mechanisms of
//                      MPI" style).
//
// All modes produce results bitwise identical to the single-domain drivers.

#pragma once

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "core/compiled_iteration.hpp"
#include "dist/cluster.hpp"
#include "dist/failure_detector.hpp"
#include "dist/retry_policy.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh::dist {

/// What the driver learned about the last failed iteration: which slab
/// failed (-1 when unattributable — e.g. a global volume error), the status
/// the failure maps to, and whether it was transient (an injected/dropped
/// fault that a replay at unchanged dt can clear).  The recovery layer
/// (dist/resilient_dist) uses this to decide which slab to rebuild.
struct slab_failure {
    index_t slab = -1;
    status code = status::ok;
    bool transient = false;
    std::string message;
};

class dist_driver {
public:
    enum class exchange_mode { futurized, eager, bulk_synchronous };

    /// `halo_timeout` > 0 arms a progress deadline on the futurized
    /// exchanges: if no task of the iteration finishes for a whole timeout
    /// window while the final barrier is pending, the halo fabric is failed
    /// (channels closed) and the iteration aborts with status::stalled
    /// instead of waiting forever on a peer that will never send.  With a
    /// timeout armed the failure detector's per-slab heartbeats name the
    /// suspect slab in last_failure().
    ///
    /// `retry` (when enabled) arms the transient-fault retry layer on the
    /// futurized exchanges: every boundary send parks a pristine copy in
    /// the boundary's retransmit cache, a CRC-corrupt delivery triggers a
    /// backed-off resend-request round-trip, and a dropped (fault-injected)
    /// message is re-delivered by the driver's wait loop — bounded by
    /// retry_policy::max_attempts before the failure escalates.  Disabled
    /// (the default), the send/receive paths are exactly the fail-stop
    /// ones.
    dist_driver(amt::runtime& rt, partition_sizes parts,
                exchange_mode mode = exchange_mode::futurized,
                std::chrono::milliseconds halo_timeout =
                    std::chrono::milliseconds(0),
                retry_policy retry = retry_policy::none())
        : rt_(rt),
          parts_(parts),
          mode_(mode),
          halo_timeout_(halo_timeout),
          retry_(retry) {}

    dist_driver(const dist_driver&) = delete;
    dist_driver& operator=(const dist_driver&) = delete;

    [[nodiscard]] std::string name() const {
        switch (mode_) {
            case exchange_mode::futurized:
                return "dist_futurized";
            case exchange_mode::eager:
                return "dist_eager";
            default:
                return "dist_bsp";
        }
    }
    [[nodiscard]] exchange_mode mode() const noexcept { return mode_; }
    [[nodiscard]] amt::runtime& runtime() noexcept { return rt_; }

    /// One global leapfrog iteration: all slabs advance, constraints are
    /// min-reduced across slabs and written back to every slab.  Throws
    /// simulation_error on volume/qstop violations in any slab.
    void advance(cluster& c);

    /// The retry policy the exchange layer runs under.
    [[nodiscard]] const retry_policy& retry() const noexcept { return retry_; }

    /// Diagnosis of the last advance() that threw: slab attribution, mapped
    /// status, transience.  Reset at the start of every advance().
    [[nodiscard]] const slab_failure& last_failure() const noexcept {
        return last_failure_;
    }

    /// Accepts `cap`, a capture of slab `slab`'s state, for overlapped
    /// packing — the per-slab form of
    /// taskgraph_driver::submit_overlapped_capture.  The pack jobs become
    /// tasks of the *next* advance(): node-field packs gate the slab's B1
    /// (before its node wave writes x..zd), element-field packs its B3
    /// (before its region wave writes e/p/q/v/ss) — the placement
    /// audit_cluster audits.  The driver holds the capture
    /// only weakly: the caller keeps it and finalizes it (pack_remaining,
    /// wait_packed) before it touches the slab; a capture finalized and
    /// released before the next advance() is simply skipped.  Declines
    /// (returns false, the caller packs synchronously) in the
    /// bulk-synchronous mode and on single-worker runtimes, where there is
    /// no idle worker to overlap with.
    bool submit_overlapped_capture(index_t slab,
                                   std::shared_ptr<state_capture> cap);

    /// Re-delivers the cached copy of one boundary message (recovery
    /// plumbing; public for the receive-retry chain and tests).  With
    /// `force` false, only an in-flight (packed > sent), overdue,
    /// within-budget message is resent — the wait loop's drop recovery.
    /// With `force` true the delivered/overdue checks are skipped: the
    /// receiver found the delivered copy corrupt and asks for a fresh one.
    /// The resend passes the same halo_drop/halo_corrupt fault sites as the
    /// original send, so unbounded injection plans exhaust the retry budget
    /// deterministically.  Returns true if a message entered the channel.
    bool resend_from_cache(cluster& c, index_t b, halo_stream which,
                           bool force);

    /// The compiled cluster iteration (null before the first advance).
    [[nodiscard]] const graph::compiled_iteration* compiled() const noexcept {
        return compiled_.get();
    }

private:
    /// Compiles the cluster's slab tables unless the graph already matches
    /// their shape, and binds every slab.
    void prepare_graph(cluster& c);
    /// Body of the compiled graph's driver nodes: sends, bulk-synchronous
    /// direct exchanges and the per-slab liveness node.
    void halo_step(std::size_t slab, const graph::task_decl& t);
    void reduce_constraints(cluster& c);

    /// Packs and sends one boundary plane, routing through the retransmit
    /// cache and the halo_drop/halo_corrupt fault sites when retry is on.
    void send_halo(cluster& c, index_t s, bool upper, bool corner);

    /// Chains the receive of one incoming boundary message (the external
    /// dependency `e` of the compiled graph): unpacks it into the slab's
    /// ghost plane, then satisfies the gate — after failing it when the
    /// message cannot arrive.  When retry is enabled a CRC-corrupt
    /// delivery requests a backed-off resend (bounded by the policy)
    /// before the error escalates.
    void receive_halo(cluster& c,
                      const graph::compiled_iteration::external& e);

    /// Scans every retransmit slot for overdue undelivered messages and
    /// resends them (called from the armed wait loop).
    void service_resends(cluster& c);

    /// (Re)builds the per-boundary fault-site labels, per-slab kill-switch
    /// labels, and the failure detector for `c`'s topology.  The label
    /// strings are stable for the cluster's lifetime — fault plans compare
    /// site strings by content, and the tracer requires outliving storage.
    void ensure_fabric(cluster& c);

    amt::runtime& rt_;
    partition_sizes parts_;
    exchange_mode mode_;
    std::chrono::milliseconds halo_timeout_{0};
    retry_policy retry_;

    /// Per-boundary fault-injection site labels, e.g. "halo_drop:corner_up:2"
    /// = drop the corner_up message of boundary 2 (see docs/resilience.md).
    struct halo_labels {
        std::string drop[num_halo_streams];
        std::string corrupt[num_halo_streams];
    };
    std::vector<halo_labels> labels_;
    std::vector<std::string> kill_labels_;  ///< "slab_kill:<s>" per slab
    std::shared_ptr<failure_detector> detector_;
    slab_failure last_failure_;
    std::vector<std::weak_ptr<state_capture>> pending_captures_;

    graph::error_flags flags_;
    std::unique_ptr<graph::compiled_iteration> compiled_;
    cluster* bound_ = nullptr;  ///< the cluster of the running advance()
    /// First failure of each slab in the running advance(), filed by the
    /// graph's error hook.
    std::mutex errors_mu_;
    std::vector<std::exception_ptr> errors_;
};

/// Iteration loop over a cluster, mirroring lulesh::run_simulation: shared
/// TimeIncrement (identical on every slab), then dist_driver::advance, until
/// stoptime or the cycle cap.  The reported final origin energy comes from
/// the slab owning the global origin element (slab 0).
run_result run_simulation(cluster& c, dist_driver& drv,
                          int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh::dist
