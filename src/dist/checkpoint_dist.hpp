// dist/checkpoint_dist.hpp
//
// Per-slab checkpoint chains for the multi-domain cluster.  Each slab owns
// its own v3 chain file — `path + ".slab" + i` — so a future multi-node
// deployment can write every slab's chain from the node that owns it with
// no global serialization point.  The records themselves are the same
// crash-consistent whole-state records as the single-domain chains (see
// lulesh/checkpoint_chain.hpp and docs/resilience.md), and every file is
// written whole and atomically.
//
// The resilient loop mirrors slab i's two-record ring to slab i's file at
// every commit (lulesh/resilient_run.hpp); save_cluster_chains writes a
// one-record file per slab.  load_cluster_chains restores either by the
// one restore rule, restore_common_cycle.

#pragma once

#include <string>

#include "dist/cluster.hpp"

namespace lulesh::dist {

/// Writes a fresh chain per slab (one base record each) with the atomic
/// temp+fsync+rename protocol.  Throws checkpoint_error on I/O failure.
void save_cluster_chains(cluster& c, const std::string& path);

/// Restores every slab to the *same committed cycle* — the newest cycle
/// every slab's file holds a valid record of (restore_common_cycle).
/// Restoring each slab on its own is not enough for a cluster: a crash
/// between two slabs' rewrites can leave slab A's file one record ahead of
/// slab B's, and restoring each slab to its own newest record would
/// desynchronize the lockstep clock.  A record that fails validation
/// lowers the target for everyone, so an older record is applied only when
/// a newer one fails.  Throws checkpoint_error — naming the offending slab
/// file — if a file is missing or holds no committed record, or if no
/// cycle can be restored in every slab.
void load_cluster_chains(cluster& c, const std::string& path);

/// The chain file of slab `i` under `path`.
std::string slab_chain_path(const std::string& path, index_t i);

}  // namespace lulesh::dist
