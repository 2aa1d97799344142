// dist/resilient_dist.hpp
//
// Fail-soft distributed runs: the cluster as a resilient_system, driven by
// the one rollback-and-replay loop (lulesh::run_resilient,
// lulesh/resilient_run.hpp) — and, for dist::run_simulation, by the one
// plain loop, whose failures end the run with the same diagnosis.  The fail-stop dist layer turns any slab
// failure into a terminal exit; under the loop the *recoverable* ones — an
// injected task fault, a slab death flagged by the failure detector, a halo
// CRC failure that exhausted its channel-level retries, and the
// channel_closed cascade they cause — become a cluster-wide rollback.
//
// What the cluster adds to the loop:
//   * diagnosis from taskgraph_driver::last_failure: the slab it names, its
//     transience, and the status the fail-stop path maps it to (a cascade
//     with no named slab ends as stalled);
//   * before each rollback, the named slab's domain is rebuilt from
//     scratch (its memory is presumed lost; cluster::rebuild_slab, traced
//     as a dist:slab_rebuild mark) and the halo fabric is re-wired
//     (cluster::reopen_channels);
//   * slab i's ring is mirrored to slab_chain_path(checkpoint_path, i), so
//     a process restart resumes through load_cluster_chains.
//
// Each slab's capture is handed to the driver's submit_overlapped_capture
// and packed by the next cycle's tasks, in either exchange mode.  See
// docs/resilience.md for the recovery matrix.

#pragma once

#include <limits>

#include "dist/driver_dist.hpp"
#include "lulesh/resilient_run.hpp"

namespace lulesh::dist {

/// The loop's options and result, under the names perfbench uses.
using dist_resilience_options = resilience_options;
using dist_resilient_result = resilient_result;

/// Runs `drv` on `c` to stoptime / `max_cycles` under lulesh::run_resilient.
/// Exceptions other than simulation_error, injected faults and the
/// halo-fabric channel_closed cascade are not retryable and propagate.
resilient_result run_resilient(
    cluster& c, dist_driver& drv, const resilience_options& opt,
    int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh::dist
