// tests/dist/test_halo_audit.cpp — the halo-exchange extension of the
// static graph audit.  The slab model (iteration waves + pack/unpack tasks
// per interior boundary + overlapped checkpoint packs) must be proven
// race-free for real clusters, and adversarial mutations — an unpack
// retargeted at the owned plane, a pack whose plane gating is severed, a
// checkpoint pack held into the region stage — must surface as exactly the
// hazard the mutation introduces.

#include "dist/halo_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/access.hpp"
#include "dist/cluster.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/domain.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::partition_sizes;
using lulesh::dist::audit_cluster;
using lulesh::dist::build_slab_model;
using lulesh::dist::cluster;
using lulesh::dist::cluster_audit_ok;
using lulesh::dist::format_cluster_audit;
namespace graph = lulesh::graph;

options opts(index_t size, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

bool is_halo_site(const graph::task_decl& t) {
    return std::string(t.site).rfind("halo.", 0) == 0;
}

std::size_t count_site(const graph::graph_model& m, const std::string& site) {
    return static_cast<std::size_t>(std::count_if(
        m.tasks.begin(), m.tasks.end(), [&](const graph::task_decl& t) {
            return std::string(t.site) == site;
        }));
}

graph::task_decl* find_halo_task(graph::graph_model& m,
                                 const std::string& site) {
    const auto it = std::find_if(
        m.tasks.begin(), m.tasks.end(), [&](const graph::task_decl& t) {
            return std::string(t.site) == site;
        });
    return it == m.tasks.end() ? nullptr : &*it;
}

// ---------------- model shape ----------------

TEST(HaloAuditModel, InteriorSlabGetsFourTasksPerBoundary) {
    cluster c(opts(6), 3);
    const domain& mid = c.slab(1);
    ASSERT_TRUE(mid.has_lower_neighbor());
    ASSERT_TRUE(mid.has_upper_neighbor());

    const auto base = graph::build_iteration_model(mid, {64, 64});
    const auto m = build_slab_model(mid, {64, 64});
    EXPECT_EQ(m.tasks.size(), base.tasks.size() + 8);
    for (const char* site : {"halo.pack_corner", "halo.unpack_corner",
                             "halo.pack_delv", "halo.unpack_delv"}) {
        EXPECT_EQ(count_site(m, site), 2u) << site;
    }
}

TEST(HaloAuditModel, EdgeSlabsGetOneBoundaryEach) {
    cluster c(opts(6), 3);
    const auto bottom = build_slab_model(c.slab(0), {64, 64});
    const auto top = build_slab_model(c.slab(2), {64, 64});
    EXPECT_EQ(count_site(bottom, "halo.pack_corner"), 1u);
    EXPECT_EQ(count_site(top, "halo.pack_corner"), 1u);
    EXPECT_EQ(count_site(bottom, "halo.unpack_delv"), 1u);
}

TEST(HaloAuditModel, NeighborlessDomainDegeneratesToPlainModel) {
    const domain d(opts(6));
    const auto base = graph::build_iteration_model(d, {64, 64});
    const auto m = build_slab_model(d, {64, 64});
    EXPECT_EQ(m.tasks.size(), base.tasks.size());
    EXPECT_EQ(std::count_if(m.tasks.begin(), m.tasks.end(), is_halo_site), 0);
}

TEST(HaloAuditModel, PacksAreGatedOnThePlaneProducers) {
    // The pack's deps are the eager send node's gating: every stage-0
    // force task (and stage-2 elem task) whose range intersects the boundary
    // plane must be ordered before the pack that reads it.
    cluster c(opts(6), 2);
    auto m = build_slab_model(c.slab(0), {64, 64});
    const graph::task_decl* pack = find_halo_task(m, "halo.pack_corner");
    ASSERT_NE(pack, nullptr);
    ASSERT_FALSE(pack->deps.empty());
    for (int dep : pack->deps) {
        const auto& p = m.tasks[static_cast<std::size_t>(dep)];
        EXPECT_EQ(p.stage, 0);
        EXPECT_EQ(std::string(p.site).rfind("force.", 0), 0u) << p.site;
        EXPECT_TRUE(p.lo < pack->hi && pack->lo < p.hi)
            << "dep range must intersect the packed plane";
    }
    const graph::task_decl* dpack = find_halo_task(m, "halo.pack_delv");
    ASSERT_NE(dpack, nullptr);
    ASSERT_FALSE(dpack->deps.empty());
    for (int dep : dpack->deps) {
        EXPECT_EQ(m.tasks[static_cast<std::size_t>(dep)].stage, 2);
    }
}

// ---------------- the audit proof ----------------

TEST(HaloAudit, RealClustersAreProvenRaceFree) {
    for (const index_t slabs : {1, 2, 3}) {
        cluster c(opts(6), slabs);
        const auto audits = audit_cluster(c, {64, 64});
        ASSERT_EQ(audits.size(), static_cast<std::size_t>(slabs));
        EXPECT_TRUE(cluster_audit_ok(audits))
            << slabs << " slabs:\n" << format_cluster_audit(audits);
    }
}

TEST(HaloAudit, OnePlaneSlabsAndPartitionSweepStayRaceFree) {
    // 6 slabs over size 6 → one plane per slab: the packed plane is the
    // whole slab, the tightest ghost/owned adjacency the decomposition can
    // produce.  Small partitions maximize the task count.
    cluster c(opts(6), 6);
    for (const partition_sizes parts :
         {partition_sizes{16, 16}, partition_sizes{64, 64},
          partition_sizes{1024, 1024}}) {
        const auto audits = audit_cluster(c, parts);
        EXPECT_TRUE(cluster_audit_ok(audits))
            << "parts {" << parts.nodal << ", " << parts.elems << "}:\n"
            << format_cluster_audit(audits);
    }
}

TEST(HaloAudit, FormatNamesEverySlab) {
    cluster c(opts(6), 3);
    const auto audits = audit_cluster(c, {64, 64});
    const std::string text = format_cluster_audit(audits);
    EXPECT_NE(text.find("slab 0: "), std::string::npos) << text;
    EXPECT_NE(text.find("slab 2: "), std::string::npos) << text;
    EXPECT_NE(text.find("PASS"), std::string::npos) << text;
}

// ---------------- overlapped checkpoint packs ----------------

bool is_ckpt_pack(const graph::task_decl& t) {
    return std::string(t.site).rfind("ckpt.pack.", 0) == 0;
}

/// The slab model audit_cluster checks: halo tasks plus the overlapped
/// checkpoint packs.
graph::graph_model slab_model_with_packs(const domain& d,
                                         partition_sizes parts) {
    graph::graph_model m = build_slab_model(d, parts);
    graph::add_checkpoint_pack_tasks(m, d);
    return m;
}

TEST(HaloAuditCheckpoint, PackPlacementIsProvenRaceFree) {
    // The accepted placement: dist_driver gates a slab's B1 barrier on its
    // node-field packs (stage 0 only) and its B3 barrier on its
    // element-field packs (through stage 2).  With the ghost unpacks, the
    // waves and the packs all in one model, every slab must still audit
    // clean — for edge and interior slabs, one-plane slabs, and a
    // partition sweep.
    for (const index_t slabs : {1, 2, 3, 6}) {
        cluster c(opts(6), slabs);
        for (const partition_sizes parts :
             {partition_sizes{16, 16}, partition_sizes{64, 64}}) {
            for (index_t s = 0; s < slabs; ++s) {
                const domain& d = c.slab(s);
                const auto plain = build_slab_model(d, parts);
                const auto m = slab_model_with_packs(d, parts);
                ASSERT_EQ(m.tasks.size(),
                          plain.tasks.size() + lulesh::num_checkpoint_fields);
                std::size_t node_packs = 0;
                std::size_t elem_packs = 0;
                for (const auto& t : m.tasks) {
                    if (!is_ckpt_pack(t)) continue;
                    const bool node = std::string(t.site) == "ckpt.pack.node";
                    (node ? node_packs : elem_packs) += 1;
                    EXPECT_EQ(t.stage, 0);
                    EXPECT_EQ(t.stage_last, node ? 0 : 2);
                }
                EXPECT_EQ(node_packs, 6u);  // x y z xd yd zd
                EXPECT_EQ(elem_packs, 5u);  // e p q v ss
                const auto res = graph::audit_graph(m, d);
                EXPECT_TRUE(res.ok())
                    << slabs << " slabs, slab " << s << ":\n"
                    << graph::format_audit(res, m);
            }
        }
    }
}

TEST(HaloAuditCheckpoint, ClusterAuditCarriesThePacks) {
    // audit_cluster (and distributed_sedov --audit-graph) audits the model
    // with the packs in it, not the pack-free one.
    cluster c(opts(6), 3);
    const auto audits = audit_cluster(c, {64, 64});
    for (const auto& a : audits) {
        EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                      a.model.tasks.begin(), a.model.tasks.end(),
                      is_ckpt_pack)),
                  lulesh::num_checkpoint_fields)
            << "slab " << a.slab;
    }
    EXPECT_TRUE(cluster_audit_ok(audits)) << format_cluster_audit(audits);
}

TEST(HaloAuditCheckpoint, ElemPackSpanningTheRegionStageIsFlagged) {
    // Adversarial: an element-field pack still in flight in stage 3 — what
    // gating the region wave's barrier B4 on it instead of B3 would
    // mean — races the region wave's writes of e.  The audit must say so.
    cluster c(opts(6), 3);
    const domain& d = c.slab(1);
    auto m = slab_model_with_packs(d, {64, 64});
    const auto pack = std::find_if(
        m.tasks.begin(), m.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "ckpt.pack.elem" &&
                   t.accesses.front().f == graph::field::e;
        });
    ASSERT_NE(pack, m.tasks.end());
    pack->stage_last = 3;

    const auto res = graph::audit_graph(m, d);
    ASSERT_FALSE(res.ok());
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.k, graph::hazard_report::kind::read_write);
        EXPECT_EQ(h.f, graph::field::e);
        const std::string line = h.describe(m);
        EXPECT_NE(line.find("ckpt.pack.elem"), std::string::npos) << line;
    }
}

// ---------------- adversarial mutations ----------------

TEST(HaloAuditAdversarial, UnpackRetargetedAtTheOwnedPlaneIsWriteWrite) {
    // The unpack carries no ordering edge — the audit's safety argument is
    // that the ghost region is disjoint from every owned access.  Aim the
    // unpack's writes at the owned boundary plane instead and it must
    // collide with the force tasks writing that plane.
    cluster c(opts(6), 2);
    const domain& d = c.slab(1);
    auto m = build_slab_model(d, {64, 64});
    graph::task_decl* unpack = find_halo_task(m, "halo.unpack_corner");
    ASSERT_NE(unpack, nullptr);
    const index_t plane = d.bottom_plane_elem_base();
    const index_t ep = d.elems_per_plane();
    for (auto& a : unpack->accesses) {
        a.lo = plane;
        a.hi = plane + ep;
    }

    const auto res = graph::audit_graph(m, d);
    ASSERT_FALSE(res.ok());
    bool saw_force_collision = false;
    for (const auto& h : res.hazards) {
        const std::string line = h.describe(m);
        EXPECT_NE(line.find("halo.unpack_corner"), std::string::npos) << line;
        if (h.k == graph::hazard_report::kind::write_write &&
            line.find("force.") != std::string::npos) {
            saw_force_collision = true;
        }
    }
    EXPECT_TRUE(saw_force_collision)
        << "expected a write-write against the force wave:\n"
        << graph::format_audit(res, m);
}

TEST(HaloAuditAdversarial, DelvUnpackIntoOwnedRangeCollidesWithElemWave) {
    cluster c(opts(6), 2);
    const domain& d = c.slab(0);
    auto m = build_slab_model(d, {64, 64});
    graph::task_decl* unpack = find_halo_task(m, "halo.unpack_delv");
    ASSERT_NE(unpack, nullptr);
    const index_t plane = d.top_plane_elem_base();
    for (auto& a : unpack->accesses) {
        a.lo = plane;
        a.hi = plane + d.elems_per_plane();
    }

    const auto res = graph::audit_graph(m, d);
    ASSERT_FALSE(res.ok());
    bool saw_elem_collision = false;
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.f, graph::field::delv_zeta);
        const std::string line = h.describe(m);
        if (line.find("elem") != std::string::npos) saw_elem_collision = true;
    }
    EXPECT_TRUE(saw_elem_collision) << graph::format_audit(res, m);
}

TEST(HaloAuditAdversarial, SeveredPlaneGatingIsReadWrite) {
    // Cut the pack's dependency edges: it now reads the boundary plane
    // concurrently with the force tasks writing it — the race the send
    // node's plane gating exists to prevent.
    cluster c(opts(6), 2);
    const domain& d = c.slab(0);
    auto m = build_slab_model(d, {64, 64});
    graph::task_decl* pack = find_halo_task(m, "halo.pack_corner");
    ASSERT_NE(pack, nullptr);
    pack->deps.clear();

    const auto res = graph::audit_graph(m, d);
    ASSERT_FALSE(res.ok());
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.k, graph::hazard_report::kind::read_write);
        const std::string line = h.describe(m);
        EXPECT_NE(line.find("halo.pack_corner"), std::string::npos) << line;
        EXPECT_NE(line.find("force."), std::string::npos) << line;
    }
}

// ---------------- the extent fix backing the ghost stamps ----------------

TEST(HaloAudit, ElemSpaceExtentCoversGhostPlanes) {
    // The writer map for elem-space fields must span the ghost-extended
    // delv_zeta of a slab, or the unpack's ghost stamps would index past it.
    cluster c(opts(6), 3);
    const domain& mid = c.slab(1);
    EXPECT_EQ(graph::space_extent(graph::space::elem, mid, 0),
              mid.delv_zeta.size());
    EXPECT_GT(mid.delv_zeta.size(),
              static_cast<std::size_t>(mid.numElem()));
    const domain single(opts(6));
    EXPECT_EQ(graph::space_extent(graph::space::elem, single, 0),
              static_cast<std::size_t>(single.numElem()));
}

}  // namespace
