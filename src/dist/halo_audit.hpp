// dist/halo_audit.hpp
//
// The dist slab's table and its audit.  The single-domain table
// (core/access::build_iteration_table) covers the four leapfrog waves; a
// slab additionally runs, per interior boundary:
//
//   stage 0  pack_corner   reads the boundary plane of the six corner-force
//                          arrays — ordered after exactly the force tasks
//                          that write that plane, the gating every exchange
//                          mode compiles;
//            unpack_corner writes the neighbor's plane into the ghost slots
//                          — declared with NO intra-stage ordering edge, so
//                          the audit must prove the ghost region disjoint
//                          from every owned-plane access of the wave;
//   stage 2  pack_delv     reads the boundary plane of delv_zeta (same
//                          gating as pack_corner);
//            unpack_delv   writes the delv_zeta ghost plane, again with no
//                          edge — disjointness is the safety argument.
//
// Last in the table comes the slab's liveness task: a stage-0 root that
// stamps the slab's heartbeat and passes its slab_kill:<slab> fault site,
// the hook a fail-stop test uses to take one slab down.  It reads and
// writes no field.
//
// dist_driver compiles exactly this table, in both exchange modes, by one
// rule (core/compiled_iteration): each pack becomes a send node gated on
// its deps, each unpack an external dependency of its stage's barrier, and
// the liveness task a stage-0 root node.  The modes differ only in whether
// the slabs share one barrier set, and a shared barrier only adds
// ordering, so this per-slab audit covers both.
//
// audit_cluster also appends the overlapped checkpoint packs dist_driver
// runs for a capture submitted by dist::run_resilient
// (graph::add_checkpoint_pack_tasks): node-field packs within stage 0
// (gating the slab's B1, ahead of the node wave), the v pack through
// stage 1 (gating its B2, ahead of the element wave's volume update), the
// other element-field packs through stage 2 (gating its B3, ahead of the
// region wave).  The audit
// thus proves the packs race neither the waves nor the ghost unpacks.
//
// The audit is per-slab: slabs share no arrays (channels pass buffers by
// value), so cross-slab ordering is the channel set→get dependency the
// runtime enforces by construction, while every intra-slab hazard — ghost
// slots colliding with owned ranges, a send racing the plane it reads, a
// checkpoint pack outliving its barrier — is in scope here.

#pragma once

#include <string>
#include <vector>

#include "core/graph_audit.hpp"
#include "dist/cluster.hpp"

namespace lulesh::dist {

/// The compact table of slab `slab`'s advance: the four-wave iteration
/// table, the halo pack/unpack tasks for each interior boundary the slab
/// touches, and the slab's liveness task (labelled with `slab`).  `d` must
/// be a slab domain (cluster::slab); on a domain with no neighbors this is
/// the plain iteration table plus the liveness task.
graph::graph_model build_slab_table(const domain& d, partition_sizes parts,
                                    index_t slab);

/// build_slab_table with every task's access set filled in.
graph::graph_model build_slab_model(const domain& d, partition_sizes parts,
                                    index_t slab);

/// One slab's audit outcome within a cluster audit.
struct slab_audit {
    index_t slab = 0;
    graph::graph_model model;
    graph::audit_result result;
};

/// Audits every slab of the cluster with build_slab_model plus the
/// overlapped checkpoint packs (graph::add_checkpoint_pack_tasks).
std::vector<slab_audit> audit_cluster(const cluster& c, partition_sizes parts);

[[nodiscard]] bool cluster_audit_ok(const std::vector<slab_audit>& audits);

/// Per-slab "slab N: ..." lines in format_audit's format.
std::string format_cluster_audit(const std::vector<slab_audit>& audits);

}  // namespace lulesh::dist
