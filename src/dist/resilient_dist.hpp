// dist/resilient_dist.hpp
//
// Fail-soft distributed runs: coordinated rollback-and-replay over the
// per-slab checkpoint rings.  The fail-stop dist layer turns any slab
// failure into a terminal exit; this wrapper turns the *recoverable* ones —
// an injected task fault, a slab death flagged by the failure detector, a
// halo CRC failure that exhausted its channel-level retries — into a
// cluster-wide rollback:
//
//   1. The failed iteration settles (dist_driver::advance only throws after
//      every slab's chain resolved), so the cluster is quiescent.
//   2. If the driver attributed the failure to one slab
//      (dist_driver::last_failure), that slab's domain is rebuilt from
//      scratch — its memory is presumed lost — and restored from its ring.
//   3. The halo fabric is re-wired (cluster::reopen_channels) and every
//      slab is rolled back to the *same committed cycle*.  Each slab keeps
//      a record_ring (lulesh/checkpoint_chain.hpp) of its newest committed
//      record and one fallback, both whole states, and the rings commit in
//      lockstep.  The target is the newest cycle every slab holds a valid
//      record of, else the fallback — the consistent-cycle rule the
//      on-disk loader (load_cluster_chains) applies — and each slab applies
//      that one record.  A corrupt record rules its cycle out for everyone;
//      with neither cycle valid every slab restores the pristine entry
//      snapshot.
//   4. The loop replays.  A transient fault's first replay runs at the
//      unchanged dt — checkpoints are bitwise and every exchange mode is
//      deterministic, so recovery is bitwise identical to a fault-free run
//      (tests verify this).  Repeat failures of the same cycle, and
//      deterministic physics failures, halve dt first.
//
// Checkpoint records are packed off the critical path where the driver
// accepts it: each slab's capture is handed to
// dist_driver::submit_overlapped_capture and packed by the next cycle's
// tasks, then finalized (record_hook run, record committed, in slab order)
// before the next checkpoint, before step 2 or 3 touches a slab, and before
// run_resilient returns — so recovery restores the same cycles as a
// synchronous pack would.  Each capture reuses the record buffer its ring
// retired, so steady-state checkpointing allocates no record memory.
//
// Recovery attempts per incident are bounded by max_recoveries; exhausting
// the budget ends the run with the same status (and process exit code) the
// fail-stop path would have produced — degradation never invents new
// failure modes.  See docs/resilience.md for the recovery matrix.

#pragma once

#include <functional>
#include <limits>
#include <string>

#include "dist/driver_dist.hpp"

namespace lulesh::dist {

struct dist_resilience_options {
    /// Checkpoint every K successful cycles.  K <= 0 keeps only the entry
    /// snapshot — still recoverable, at full-replay cost.
    int checkpoint_every = 10;

    /// Recovery budget per incident (failing cycle).  0 disables recovery:
    /// the first failure ends the run exactly like the fail-stop path.
    int max_recoveries = 3;

    /// When non-empty, every slab's ring is mirrored to
    /// slab_chain_path(checkpoint_path, i), rewritten at every commit with
    /// the crash-consistent v3 protocol, so a process restart can resume
    /// via load_cluster_chains.
    std::string checkpoint_path;

    /// Test seam: invoked on each slab's finished record bytes just before
    /// the record is committed to that slab's ring.  Corruption tests flip
    /// bytes here to prove the consistent-cycle rollback rules the bad
    /// record's cycle out instead of restoring corrupt state.
    std::function<void(index_t slab, std::string&)> record_hook;
};

struct dist_resilient_result {
    run_result result;

    int recoveries = 0;         ///< coordinated rollback-and-replay attempts
    int checkpoints = 0;        ///< cluster checkpoints after the entry one
    int dt_halvings = 0;        ///< replays that reduced dt first
    int entry_fallbacks = 0;    ///< rollbacks that found no valid ring cycle
                                ///< and restored the pristine entry snapshot
    int slab_rebuilds = 0;      ///< dead slabs rebuilt from scratch
    int last_rollback_cycle = -1;  ///< cycle the last rollback restored
};

/// Runs `drv` on `c` to stoptime / `max_cycles` with coordinated rollback
/// recovery as described above.  Exceptions other than simulation_error,
/// injected faults, and the halo-fabric channel_closed cascade are not
/// retryable and propagate.  Works with both exchange modes: they share
/// the channel fabric, the failure detector and the overlapped packs.
dist_resilient_result run_resilient(
    cluster& c, dist_driver& drv, const dist_resilience_options& opt,
    int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh::dist
