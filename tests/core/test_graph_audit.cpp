// tests/core/test_graph_audit.cpp — the static hazard auditor: the real
// iteration model must be proven race-free on concrete meshes, and
// adversarial mutations of the model (a write range grown past its
// partition, a checkpoint pack held past its barrier) must be flagged as
// exactly the hazard the mutation introduces, with the offending tasks,
// field, and range named.

#include "core/graph_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/access.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/domain.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::partition_sizes;
namespace graph = lulesh::graph;
using graph::field;

options small_opts(index_t size = 6, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

TEST(GraphAudit, RealIterationModelIsProvenRaceFree) {
    const domain d(small_opts());
    const auto model = graph::build_iteration_model(d, {64, 64});
    const auto res = graph::audit_graph(model, d);
    EXPECT_TRUE(res.ok()) << graph::format_audit(res, model);
    EXPECT_GT(res.tasks, 0u);
    // One task per chunk per wave: the barriers order everything, so the
    // single-domain table declares no in-stage edges.
    EXPECT_EQ(res.edges, 0u);
    EXPECT_GT(res.accesses, 0u);
    EXPECT_GT(res.indices_stamped, 0u);
    EXPECT_NE(graph::format_audit(res, model).find("PASS"), std::string::npos);
}

TEST(GraphAudit, PassesAcrossPartitionSweep) {
    // Autotune moves partition sizes at runtime; every decomposition the
    // sweep can reach must stay race-free, including ragged last chunks.
    const domain d(small_opts());
    for (const partition_sizes parts :
         {partition_sizes{16, 16}, partition_sizes{50, 40},
          partition_sizes{512, 512}, partition_sizes{1024, 1024}}) {
        const auto model = graph::build_iteration_model(d, parts);
        const auto res = graph::audit_graph(model, d);
        EXPECT_TRUE(res.ok()) << "parts {" << parts.nodal << ", " << parts.elems
                              << "}:\n"
                              << graph::format_audit(res, model);
    }
}

TEST(GraphAudit, PassesOnMultiRegionAndSlabDomains) {
    {
        const domain d(small_opts(8, 11));
        const auto model = graph::build_iteration_model(d, {64, 64});
        EXPECT_TRUE(graph::audit_graph(model, d).ok());
    }
    {
        // Interior slab of a decomposed run: ghost corner slots widen the
        // corner space, region lists are slab-local.
        const domain d(small_opts(6, 1), lulesh::slab_extent{2, 4, 6});
        const auto model = graph::build_iteration_model(d, {64, 64});
        EXPECT_TRUE(graph::audit_graph(model, d).ok());
    }
}

TEST(GraphAuditAdversarial, WriteRangeGrownPastItsPartitionIsWriteWrite) {
    const domain d(small_opts());
    auto model = graph::build_iteration_model(d, {64, 64});

    // Grow one element task's write of v (its volume update) by one
    // element: it now writes v into the next chunk's territory with no
    // ordering edge, where the next task both reads and writes v.
    const auto elem = std::find_if(
        model.tasks.begin(), model.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "elem" && t.partition == 0;
        });
    ASSERT_NE(elem, model.tasks.end());
    for (auto& a : elem->accesses) {
        if (a.f == field::v && a.m == graph::mode::write) a.hi += 1;
    }

    const auto res = graph::audit_graph(model, d);
    ASSERT_FALSE(res.ok());
    ASSERT_EQ(res.hazards.size(), 2u);
    EXPECT_EQ(res.hazards[0].k, graph::hazard_report::kind::write_write);
    EXPECT_EQ(res.hazards[1].k, graph::hazard_report::kind::read_write);
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.f, field::v);
        EXPECT_EQ(h.lo, elem->hi);  // exactly the one stolen element
        EXPECT_EQ(h.hi, elem->hi + 1);
        const std::string line = h.describe(model);
        EXPECT_NE(line.find("elem[0] vs elem[1]"), std::string::npos) << line;
    }
    EXPECT_NE(res.hazards[0].describe(model).find("write-write"),
              std::string::npos);
}

TEST(GraphAuditCheckpoint, PackExtendedModelIsProvenRaceFree) {
    // The overlapped-packing proof: the iteration model plus the pack tasks
    // the task-graph driver actually spawns (one read-only task per
    // checkpointed field, node packs in stage 0, the v pack spanning stages
    // 0-1, the other elem packs 0-2) must still audit clean.
    const domain d(small_opts());
    auto model = graph::build_iteration_model(d, {64, 64});
    const std::size_t before = model.tasks.size();
    graph::add_checkpoint_pack_tasks(model, d);
    EXPECT_EQ(model.tasks.size(), before + lulesh::num_checkpoint_fields);

    std::size_t node_packs = 0, elem_packs = 0;
    for (const auto& t : model.tasks) {
        if (std::string(t.site) == "ckpt.pack.node") {
            ++node_packs;
            EXPECT_EQ(t.stage, 0);
            EXPECT_EQ(t.stage_last, 0);
        } else if (std::string(t.site) == "ckpt.pack.elem") {
            ++elem_packs;
            EXPECT_EQ(t.stage, 0);
            // The element wave (stage 2) writes v; the region wave (stage
            // 3) writes the other element fields.
            EXPECT_EQ(t.stage_last, t.accesses.front().f == field::v ? 1 : 2)
                << graph::field_name(t.accesses.front().f);
        }
    }
    EXPECT_EQ(node_packs, 6u);  // x y z xd yd zd
    EXPECT_EQ(elem_packs, 5u);  // e p q v ss

    const auto res = graph::audit_graph(model, d);
    EXPECT_TRUE(res.ok()) << graph::format_audit(res, model);
}

TEST(GraphAuditCheckpoint, ElemPackHeldIntoRegionStageIsFlagged) {
    // Adversarial: let one element-field pack stay in flight one barrier
    // too long — through stage 3, where the region wave writes e/p/q/ss.
    // The audit must flag the unordered read-write overlap; this is what
    // would happen if the driver joined elem packs into B4 instead of B3.
    const domain d(small_opts());
    auto model = graph::build_iteration_model(d, {64, 64});
    graph::add_checkpoint_pack_tasks(model, d);

    const auto pack = std::find_if(
        model.tasks.begin(), model.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "ckpt.pack.elem" &&
                   t.accesses.front().f == field::e;
        });
    ASSERT_NE(pack, model.tasks.end());
    pack->stage_last = 3;

    const auto res = graph::audit_graph(model, d);
    ASSERT_FALSE(res.ok());
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.k, graph::hazard_report::kind::read_write);
        EXPECT_EQ(h.f, field::e);
        const std::string line = h.describe(model);
        EXPECT_NE(line.find("ckpt.pack.elem"), std::string::npos) << line;
    }
}

TEST(GraphAuditCheckpoint, VPackHeldIntoElemStageIsFlagged) {
    // The v pack gates B2, because the element wave's volume update writes
    // v in stage 2.  Held one barrier longer, into B3 with the other
    // element packs, it races every element task's write of v.
    const domain d(small_opts());
    auto model = graph::build_iteration_model(d, {64, 64});
    graph::add_checkpoint_pack_tasks(model, d);

    const auto pack = std::find_if(
        model.tasks.begin(), model.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "ckpt.pack.elem" &&
                   t.accesses.front().f == field::v;
        });
    ASSERT_NE(pack, model.tasks.end());
    ASSERT_EQ(pack->stage_last, 1);
    pack->stage_last = 2;

    const auto res = graph::audit_graph(model, d);
    ASSERT_FALSE(res.ok());
    const auto elem_tasks = static_cast<std::size_t>(std::count_if(
        model.tasks.begin(), model.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "elem";
        }));
    EXPECT_EQ(res.hazards.size(), elem_tasks);
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.k, graph::hazard_report::kind::read_write);
        EXPECT_EQ(h.f, field::v);
        const auto& elem =
            model.tasks[static_cast<std::size_t>(std::min(h.task_a, h.task_b))];
        EXPECT_STREQ(elem.site, "elem");
        EXPECT_EQ(h.lo, elem.lo);  // the whole chunk the element task writes
        EXPECT_EQ(h.hi, elem.hi);
        const std::string line = h.describe(model);
        EXPECT_NE(line.find("ckpt.pack.elem"), std::string::npos) << line;
    }
}

TEST(GraphAuditCheckpoint, NodePackHeldIntoNodeStageIsFlagged) {
    // Same seam on the node side: a coordinate pack surviving into stage 1
    // races the node wave's position update.
    const domain d(small_opts());
    auto model = graph::build_iteration_model(d, {64, 64});
    graph::add_checkpoint_pack_tasks(model, d);

    const auto pack = std::find_if(
        model.tasks.begin(), model.tasks.end(), [](const graph::task_decl& t) {
            return std::string(t.site) == "ckpt.pack.node" &&
                   t.accesses.front().f == field::x;
        });
    ASSERT_NE(pack, model.tasks.end());
    pack->stage_last = 1;

    const auto res = graph::audit_graph(model, d);
    ASSERT_FALSE(res.ok());
    for (const auto& h : res.hazards) {
        EXPECT_EQ(h.k, graph::hazard_report::kind::read_write);
        EXPECT_EQ(h.f, field::x);
    }
}

// ---------------- hand-built toy models ----------------------------------

graph::task_decl toy_task(const char* site, index_t part, int stage,
                          field f, graph::mode m, index_t lo, index_t hi,
                          std::vector<int> deps = {}) {
    graph::task_decl t;
    t.site = site;
    t.partition = part;
    t.lo = lo;
    t.hi = hi;
    t.stage = stage;
    t.accesses.push_back({f, m, lo, hi, nullptr, graph::closure::none});
    t.deps = std::move(deps);
    return t;
}

TEST(GraphAuditToy, UnorderedOverlappingWritersAreFlagged) {
    const domain d(small_opts());
    graph::graph_model m;
    m.num_stages = 1;
    m.tasks.push_back(toy_task("toy.a", 0, 0, field::e, graph::mode::write,
                               0, 10));
    m.tasks.push_back(toy_task("toy.b", 1, 0, field::e, graph::mode::write,
                               5, 15));
    const auto res = graph::audit_graph(m, d);
    ASSERT_EQ(res.hazards.size(), 1u);
    EXPECT_EQ(res.hazards[0].k, graph::hazard_report::kind::write_write);
    EXPECT_EQ(res.hazards[0].lo, 5);
    EXPECT_EQ(res.hazards[0].hi, 10);
}

TEST(GraphAuditToy, AContinuationEdgeOrdersTheOverlap) {
    const domain d(small_opts());
    graph::graph_model m;
    m.num_stages = 1;
    m.tasks.push_back(toy_task("toy.a", 0, 0, field::e, graph::mode::write,
                               0, 10));
    m.tasks.push_back(toy_task("toy.b", 1, 0, field::e, graph::mode::write,
                               5, 15, {0}));
    EXPECT_TRUE(graph::audit_graph(m, d).ok());
}

TEST(GraphAuditToy, OrderingIsTransitiveAlongChains) {
    // a → b → c declared; a and c overlap with no direct edge — the
    // transitive closure must order them.
    const domain d(small_opts());
    graph::graph_model m;
    m.num_stages = 1;
    m.tasks.push_back(toy_task("toy.a", 0, 0, field::e, graph::mode::write,
                               0, 10));
    m.tasks.push_back(toy_task("toy.b", 1, 0, field::p, graph::mode::write,
                               0, 10, {0}));
    m.tasks.push_back(toy_task("toy.c", 2, 0, field::e, graph::mode::write,
                               0, 10, {1}));
    EXPECT_TRUE(graph::audit_graph(m, d).ok());
}

TEST(GraphAuditToy, BarriersOrderAcrossStages) {
    // The same overlap split across two stages needs no edge: the surviving
    // when_all barrier between stages is the ordering.
    const domain d(small_opts());
    graph::graph_model m;
    m.num_stages = 2;
    m.tasks.push_back(toy_task("toy.a", 0, 0, field::e, graph::mode::write,
                               0, 10));
    m.tasks.push_back(toy_task("toy.b", 0, 1, field::e, graph::mode::write,
                               0, 10));
    EXPECT_TRUE(graph::audit_graph(m, d).ok());
}

TEST(GraphAuditToy, ReadersOfOneWriterDoNotConflictWithEachOther) {
    const domain d(small_opts());
    graph::graph_model m;
    m.num_stages = 1;
    m.tasks.push_back(toy_task("toy.w", 0, 0, field::e, graph::mode::write,
                               0, 10));
    m.tasks.push_back(toy_task("toy.r1", 1, 0, field::e, graph::mode::read,
                               0, 10, {0}));
    m.tasks.push_back(toy_task("toy.r2", 2, 0, field::e, graph::mode::read,
                               0, 10, {0}));
    EXPECT_TRUE(graph::audit_graph(m, d).ok());
}

}  // namespace
