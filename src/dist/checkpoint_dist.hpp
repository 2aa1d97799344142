// dist/checkpoint_dist.hpp
//
// Per-slab checkpoint chains for the multi-domain cluster.  Each slab owns
// its own v3 chain file — `path + ".slab" + i` — so a future multi-node
// deployment can write every slab's chain from the node that owns it with
// no global serialization point.  The records themselves are the same
// crash-consistent format as the single-domain chains (see
// lulesh/checkpoint_chain.hpp and docs/resilience.md): a torn write in any
// slab file costs only that slab's uncommitted tail, never the set.
//
// One iteration writes every checkpointed field of every slab in full, so
// each record covers the whole slab.  dist::run_resilient keeps the newest
// two per slab and rewrites each slab's file with them at every commit;
// append_cluster_deltas adds a full-coverage delta record in place.

#pragma once

#include <string>

#include "dist/cluster.hpp"

namespace lulesh::dist {

/// Writes a fresh chain per slab (one base record each) with the atomic
/// temp+fsync+rename protocol.  Throws checkpoint_error on I/O failure.
void save_cluster_chains(cluster& c, const std::string& path);

/// Appends one committed delta record to every slab's chain file.  The
/// files must already exist (save_cluster_chains first).  A crash
/// mid-append leaves at most one slab with a torn tail, which restore
/// ignores.
void append_cluster_deltas(cluster& c, const std::string& path);

/// Restores every slab to the *same committed cycle* — the consistent-cycle
/// rule.  Restoring each slab on its own is not enough for a cluster: a
/// crash mid-append, or between two slabs' rewrites, can leave slab A's
/// chain one committed record ahead of slab B's, and restoring each slab
/// to its own newest record would desynchronize the lockstep clock.  This
/// loader reads every slab's committed records first, picks the newest
/// cycle *every* slab has (the minimum of the per-slab chain heads), and
/// restores each slab to exactly that cycle: its newest base record at or
/// before the target, then the deltas after it up to the target.  A
/// corrupt record discovered while applying truncates that slab's chain
/// and lowers the target for everyone, so an older record is applied only
/// when a newer one fails.  Throws checkpoint_error — naming the offending
/// slab file — if any slab has no loadable committed base.
void load_cluster_chains(cluster& c, const std::string& path);

/// The chain file of slab `i` under `path`.
std::string slab_chain_path(const std::string& path, index_t i);

}  // namespace lulesh::dist
