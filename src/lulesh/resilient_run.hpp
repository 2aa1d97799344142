// lulesh/resilient_run.hpp
//
// The two run loops, each written once for one domain under any driver and
// for a cluster of slabs (dist/resilient_dist.hpp), over one interface:
// resilient_system, a fixed set of slabs that advance together and
// diagnose their own failures.
//
// run_simulation is the plain loop of the reference main(): TimeIncrement
// on every slab, then one iteration, until stoptime or the cycle cap.  A
// failure the system diagnoses as retryable ends the run with the
// diagnosed status; any other propagates.
//
// run_resilient is the rollback-and-replay loop.  It checkpoints every K
// cycles into a two-record ring per slab.  When an
// iteration fails recoverably it commits any overlapped capture, runs the
// system's before_rollback hook (the cluster rebuilds a dead slab and
// re-wires its halo fabric), restores every slab to the newest cycle every
// ring holds a valid record of (restore_common_cycle) — else to the
// pristine entry snapshot — and replays:
//
//   * A transient fault's first replay runs at the unchanged dt.  Drivers
//     are deterministic and records bitwise, so the recovered run is
//     bitwise identical to a fault-free one (tests verify this).
//   * A repeat failure of the same cycle, or a deterministic physics
//     failure (volume/qstop), halves dt first; the reference's dt-growth
//     bound (deltatimemultub) restores the step size afterwards.
//   * Recoveries are bounded per incident (one failing cycle; the budget
//     re-arms once the run advances past it).  Exhausting the budget ends
//     the run with the status the plain loop would have produced, every
//     slab rolled back to its last good state.
//
// docs/resilience.md has the recovery matrix.

#pragma once

#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "lulesh/driver.hpp"

namespace lulesh {

struct resilience_options {
    /// Checkpoint every K successful cycles.  K <= 0 is the documented
    /// *entry-snapshot-only* mode: the rings hold just the records captured
    /// before the first iteration — still enough to recover from any
    /// fault, at the cost of replaying the whole run.
    int checkpoint_every = 10;

    /// Recovery budget per incident (failing cycle).  0 disables recovery:
    /// the first failure ends the run like the plain loop.
    int max_recoveries = 3;

    /// When non-empty, slab i's ring (newest record and fallback) is
    /// mirrored to the system's mirror_path(checkpoint_path, i), rewritten
    /// at every commit with the atomic temp+fsync+rename protocol.  A crash
    /// at any byte leaves a loadable chain.
    std::string checkpoint_path;

    /// Test seam: invoked on each slab's finished record bytes just before
    /// the record is committed to that slab's ring — once per slab at
    /// entry, then once per slab per committed checkpoint, in slab order.
    /// Corruption tests flip bytes here to prove that a rollback rules the
    /// bad record's cycle out instead of restoring corrupt state.
    std::function<void(index_t slab, std::string&)> record_hook;
};

struct resilient_result {
    run_result result;

    int recoveries = 0;         ///< rollback-and-replay attempts
    int checkpoints = 0;        ///< checkpoints after the entry snapshot
    int dt_halvings = 0;        ///< replays that reduced dt first
    int entry_fallbacks = 0;    ///< rollbacks that found no valid ring cycle
                                ///< and restored the pristine entry snapshot
    int slab_rebuilds = 0;      ///< rollbacks whose failure named a dead slab
    int last_rollback_cycle = -1;  ///< cycle the last rollback restored
};

/// How a system reads a failed advance().
struct failure_diagnosis {
    bool retryable = false;  ///< false: the exception propagates
    bool transient = false;  ///< the first replay may keep dt unchanged
    status code = status::task_fault;  ///< the run's status if exhausted
    index_t slab = -1;       ///< a dead slab before_rollback rebuilds, or -1
};

/// What both loops drive: a fixed set of slabs that advance together.
class resilient_system {
public:
    virtual ~resilient_system() = default;

    [[nodiscard]] virtual index_t num_slabs() const = 0;
    /// Slab `i`'s domain.  before_rollback may replace it, so the loop
    /// asks again after every rollback.
    virtual domain& slab(index_t i) = 0;

    /// One iteration of every slab (time_increment already applied).
    virtual void advance() = 0;

    /// Offers slab `i`'s capture for packing overlapped with the next
    /// advance(); false makes the loop pack it synchronously.  The loop
    /// keeps the capture alive until it finalizes it.
    virtual bool submit_capture(index_t i,
                                std::shared_ptr<state_capture> cap) = 0;

    /// The default: a simulation_error (its status) or an injected fault
    /// (task_fault, transient) is retryable — it ends a plain run with
    /// that status — and anything else propagates.
    [[nodiscard]] virtual failure_diagnosis diagnose(
        const std::exception& e) const;

    /// Runs before every rollback, once the failed iteration settled and
    /// pending captures are committed.  The default does nothing.
    virtual void before_rollback(const failure_diagnosis& /*failure*/) {}

    /// The file slab `i`'s ring is mirrored to under `path`.
    [[nodiscard]] virtual std::string mirror_path(const std::string& path,
                                                  index_t /*i*/) const {
        return path;
    }
};

/// Runs `sys` to stoptime / `max_cycles` without recovery: the plain loop
/// described above.  lulesh::run_simulation (lulesh/driver.hpp) and
/// dist::run_simulation run it for a domain and a cluster.
run_result run_simulation(resilient_system& sys,
                          int max_cycles = std::numeric_limits<int>::max());

/// Runs `sys` to stoptime / `max_cycles` with rollback recovery as
/// described above.  A driver that can pack a capture as ordinary tasks of
/// the next iteration (the task graph, for a domain or a cluster) takes
/// the copy off the critical path; a capture is always committed before
/// anything but the driver touches a slab again.
resilient_result run_resilient(
    resilient_system& sys, const resilience_options& opt,
    int max_cycles = std::numeric_limits<int>::max());

/// One domain under any driver (serial, parallel_for, foreach, taskgraph).
resilient_result run_resilient(
    domain& d, driver& drv, const resilience_options& opt,
    int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh
