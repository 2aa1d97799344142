// lulesh/resilient_run.hpp
//
// Checkpoint-based recovery wrapper around the plain iteration loop: works
// with any driver (serial, parallel_for, foreach, taskgraph).  The loop
// snapshots the simulation state every K cycles (in memory, optionally
// mirrored to an atomically-written file), keeps the newest snapshot and
// one fallback, and, when an iteration fails with an injected fault or a
// simulation_error, rolls the domain back to the newest valid snapshot and
// retries:
//
//   * The first retry after an *injected* (transient) fault replays at the
//     unchanged dt.  Every driver is deterministic and checkpoints are
//     bitwise, so the recovered trajectory — and the final state — is
//     bitwise identical to a fault-free run (tests verify this).
//   * A repeat failure of the same incident, or any deterministic physics
//     failure (volume/qstop), halves dt before replaying; the reference's
//     dt-growth bound (deltatimemultub) restores the step size over the
//     following cycles once the run is healthy again.
//   * Retries are bounded per incident; exhausting them ends the run with
//     the mapped failure status instead of looping forever.
//
// An incident is one failing cycle: it ends when the run advances past it,
// at which point the retry budget re-arms for future faults.
//
// The multi-slab analogue is dist::run_resilient (dist/resilient_dist.hpp):
// same incident/budget/dt rules, but the rollback is coordinated — every
// slab restores to one consistent cycle and the halo fabric is re-wired.
// docs/resilience.md covers both and the distributed recovery matrix.

#pragma once

#include <functional>
#include <limits>
#include <string>

#include "lulesh/driver.hpp"

namespace lulesh {

struct resilience_options {
    /// Checkpoint every K successful cycles.  K <= 0 is the documented
    /// *entry-snapshot-only* mode: the ring holds just the record captured
    /// before the first iteration — still enough to recover from any fault,
    /// at the cost of replaying the whole run (tested in
    /// tests/lulesh/test_checkpoint_chain.cpp).
    int checkpoint_every = 10;

    /// Retry budget per incident (failing cycle); each retry rolls back to
    /// the ring's newest valid record.
    int max_retries = 3;

    /// When non-empty, the ring's records (newest and fallback) are
    /// mirrored to this file, rewritten at every commit with the atomic
    /// temp+fsync+rename protocol.  A crash at any byte leaves a loadable
    /// chain.
    std::string checkpoint_path;

    /// Test seam: invoked on each finished record's bytes just before it
    /// is committed to the ring.  Corruption tests flip a byte here to
    /// prove that rollback detects the invalid record and restores the
    /// fallback instead of silently restoring corrupt state.
    std::function<void(std::string&)> snapshot_hook;
};

struct resilient_result {
    run_result result;

    int rollbacks = 0;            ///< rollback-and-retry attempts performed
    int checkpoints = 0;          ///< snapshots taken after the entry one
    int dt_halvings = 0;          ///< retries that reduced dt before replay
    int snapshot_fallbacks = 0;   ///< rollbacks that found the newest record
                                  ///< corrupt and restored the fallback
};

/// Runs `drv` on `d` to stoptime / `max_cycles` with rollback recovery as
/// described above.  Exceptions other than injected faults and
/// simulation_error are not retryable and propagate to the caller.
///
/// Checkpoints are whole-state records in a record_ring
/// (lulesh/checkpoint_chain.hpp): the newest committed record and one
/// fallback, each individually CRC-protected and commit-stamped.  Rollback
/// applies the newest; one corrupted after capture (bit rot, a bad copy) is
/// dropped and the fallback restored instead (counted in
/// snapshot_fallbacks).  Only if both are corrupt does the checkpoint_error
/// propagate.  Drivers that can (the task graph) pack the capture as
/// ordinary tasks overlapped with the next iteration's compute, taking the
/// serialization off the critical path.
resilient_result run_resilient(domain& d, driver& drv,
                               const resilience_options& opt,
                               int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh
