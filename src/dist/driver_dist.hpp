// dist/driver_dist.hpp
//
// Multi-domain leapfrog driver: advances every slab of a cluster by one
// iteration, inserting halo exchanges between the task waves.  Every slab's
// table (dist/halo_audit: the iteration waves plus its halo tasks) is
// compiled into ONE static graph per cluster shape and replayed every
// advance through graph::replay (core/compiled_iteration), the same replay
// the taskgraph driver runs one domain by; a new cluster of the same shape
// rebinds it.  The driver keeps the halo fabric: the fault-site labels and
// the failure detector, the send and liveness nodes and the receive
// chains, the progress deadline and the retry wait, and the error hook
// with its root-cause selection.
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
// Both modes exchange through the same channels, run under the same
// progress deadline and retry layer, and accept overlapped checkpoint
// packs; both produce results bitwise identical to the single-domain
// drivers.

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
    enum class exchange_mode { futurized, bulk_synchronous };

    /// `halo_timeout` > 0 arms a progress deadline on the exchanges: if no
    /// task of the iteration finishes for a whole timeout window while the
    /// final barrier is pending, the halo fabric is failed (channels
    /// closed) and the iteration aborts with status::stalled instead of
    /// waiting forever on a peer that will never send.  With a timeout
    /// armed the failure detector's per-slab heartbeats name the suspect
    /// slab in last_failure().
    ///
    /// `retry` (when enabled) arms the transient-fault retry layer on the
    /// exchanges: every boundary send parks a pristine copy in the
    /// boundary's retransmit cache, a CRC-corrupt delivery triggers a
    /// backed-off resend-request round-trip, and a dropped (fault-injected)
    /// message is re-delivered by the driver's wait loop — bounded by
    /// retry_policy::max_attempts before the failure escalates.  Disabled
    /// (the default), the send/receive paths are exactly the fail-stop
    /// ones.
    dist_driver(amt::runtime& rt, partition_sizes parts,
                exchange_mode mode = exchange_mode::futurized,
                std::chrono::milliseconds halo_timeout =
                    std::chrono::milliseconds(0),
                retry_policy retry = retry_policy::none());

    dist_driver(const dist_driver&) = delete;
    dist_driver& operator=(const dist_driver&) = delete;

    [[nodiscard]] std::string name() const {
        return mode_ == exchange_mode::futurized ? "dist_futurized"
                                                 : "dist_bsp";
    }
    [[nodiscard]] amt::runtime& runtime() noexcept { return rt_; }

    /// One global leapfrog iteration: all slabs advance, constraints are
    /// min-reduced across slabs and written back to every slab
    /// (compiled_iteration::reduce_constraints).  Throws simulation_error
    /// on volume/qstop violations in any slab (compiled_iteration::check).
    void advance(cluster& c);

    /// The retry policy the exchange layer runs under.
    [[nodiscard]] const retry_policy& retry() const noexcept { return retry_; }

    /// Diagnosis of the last advance() that threw: slab attribution, mapped
    /// status, transience.  Reset at the start of every advance().
    [[nodiscard]] const slab_failure& last_failure() const noexcept {
        return last_failure_;
    }

    /// Accepts `cap`, a capture of slab `slab`'s state, for overlapped
    /// packing by tasks of the *next* advance()
    /// (graph::replay::submit_capture): node-field packs gate the slab's
    /// B1 (before its node wave writes x..zd), the v pack its B2 (before
    /// its element wave writes v), the other element-field packs its B3
    /// (before its region wave writes e/p/q/ss) — the placement
    /// audit_cluster audits.  The capture is held only weakly: the caller
    /// keeps it and finalizes it (pack_remaining, wait_packed) before it
    /// touches the slab.  Declines (returns false, the caller packs
    /// synchronously) on single-worker runtimes.
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
        return replay_.compiled();
    }

private:
    /// Body of the compiled graph's driver nodes: sends and the per-slab
    /// liveness node.
    void halo_step(std::size_t slab, const graph::task_decl& t);

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

    graph::replay replay_{rt_};
    /// What the driver adds to the slabs' graph: its barrier sharing, the
    /// halo nodes' body (halo_step) and the error hook below.
    graph::compiled_iteration::fabric fabric_;
    std::vector<domain*> slabs_;  ///< the bound cluster's slabs
    cluster* bound_ = nullptr;  ///< the cluster of the running advance()
    /// First failure of each slab in the running advance(), filed by the
    /// graph's error hook.
    std::mutex errors_mu_;
    std::vector<std::exception_ptr> errors_;
};

/// The plain loop (lulesh::run_simulation over the cluster's
/// resilient_system, dist/resilient_dist.cpp): TimeIncrement on every slab
/// (identical inputs, so dt and time stay in lockstep), then
/// dist_driver::advance, until stoptime or the cycle cap.  A channel_closed
/// cascade ends the run as stalled.  The reported final origin energy
/// comes from the slab owning the global origin element (slab 0).
run_result run_simulation(cluster& c, dist_driver& drv,
                          int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh::dist
