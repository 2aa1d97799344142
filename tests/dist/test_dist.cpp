// Tests for the multi-domain (slab) decomposition: slab construction,
// halo pack/unpack, and — the central claim — bitwise equivalence of any
// slab decomposition with the single-domain run in both exchange modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include <sstream>

#include "amt/amt.hpp"
#include "amt/fault.hpp"
#include "dist/checkpoint_dist.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "dist/halo_audit.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/validate.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
using lulesh::slab_extent;
using lulesh::dist::cluster;
using lulesh::dist::dist_driver;

options opts(index_t size, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

// ---------------- slab construction ----------------

TEST(SlabDomain, CountsMatchExtent) {
    const domain d(opts(6), slab_extent{2, 5, 6});
    EXPECT_EQ(d.numElem(), 6 * 6 * 3);
    EXPECT_EQ(d.numNode(), 7 * 7 * 4);
    EXPECT_TRUE(d.has_lower_neighbor());
    EXPECT_TRUE(d.has_upper_neighbor());
    EXPECT_EQ(d.elem_offset(), 2 * 36);
}

TEST(SlabDomain, InvalidExtentsThrow) {
    EXPECT_THROW(domain(opts(6), slab_extent{0, 0, 6}), std::invalid_argument);
    EXPECT_THROW(domain(opts(6), slab_extent{4, 3, 6}), std::invalid_argument);
    EXPECT_THROW(domain(opts(6), slab_extent{0, 7, 6}), std::invalid_argument);
    EXPECT_THROW(domain(opts(6), slab_extent{0, 6, 5}), std::invalid_argument);
}

TEST(SlabDomain, BottomSlabHasSymmZTopDoesNot) {
    const domain bottom(opts(6), slab_extent{0, 3, 6});
    const domain top(opts(6), slab_extent{3, 6, 6});
    EXPECT_FALSE(bottom.symmZ.empty());
    EXPECT_TRUE(top.symmZ.empty());
    EXPECT_FALSE(bottom.has_lower_neighbor());
    EXPECT_TRUE(bottom.has_upper_neighbor());
    EXPECT_TRUE(top.has_lower_neighbor());
    EXPECT_FALSE(top.has_upper_neighbor());
}

TEST(SlabDomain, GhostSlotsOnlyAtInteriorBoundaries) {
    const domain bottom(opts(6), slab_extent{0, 3, 6});
    EXPECT_EQ(bottom.ghost_lower_slot(), -1);
    EXPECT_EQ(bottom.ghost_upper_slot(), bottom.numElem());
    const domain mid(opts(6), slab_extent{2, 4, 6});
    EXPECT_EQ(mid.ghost_lower_slot(), mid.numElem());
    EXPECT_EQ(mid.ghost_upper_slot(), mid.numElem() + 36);
    // Corner arrays extended by the ghost planes.
    EXPECT_EQ(mid.fx_elem.size(),
              static_cast<std::size_t>(mid.numElem() + 72) * 8);
    EXPECT_EQ(mid.delv_zeta.size(),
              static_cast<std::size_t>(mid.numElem() + 72));
}

TEST(SlabDomain, FieldsAreExactSlicesOfGlobal) {
    const options o = opts(6);
    const domain global(o);
    const domain mid(o, slab_extent{2, 4, 6});
    const index_t off = mid.elem_offset();
    for (index_t e = 0; e < mid.numElem(); ++e) {
        const auto le = static_cast<std::size_t>(e);
        const auto ge = static_cast<std::size_t>(off + e);
        ASSERT_EQ(mid.volo[le], global.volo[ge]) << "elem " << e;
        ASSERT_EQ(mid.e[le], global.e[ge]);
        ASSERT_EQ(mid.regNum(e), global.regNum(off + e));
    }
    // Node fields including shared planes.
    const index_t noff = 2 * global.nodes_per_plane();
    for (index_t n = 0; n < mid.numNode(); ++n) {
        ASSERT_EQ(mid.x[static_cast<std::size_t>(n)],
                  global.x[static_cast<std::size_t>(noff + n)]);
        ASSERT_EQ(mid.z[static_cast<std::size_t>(n)],
                  global.z[static_cast<std::size_t>(noff + n)]);
        ASSERT_EQ(mid.nodalMass[static_cast<std::size_t>(n)],
                  global.nodalMass[static_cast<std::size_t>(noff + n)])
            << "node " << n;
    }
}

TEST(SlabDomain, BoundaryConditionsOnlyAtGlobalFaces) {
    const domain mid(opts(6), slab_extent{2, 4, 6});
    for (index_t e = 0; e < mid.numElem(); ++e) {
        const int bc = mid.elemBC[static_cast<std::size_t>(e)];
        EXPECT_EQ(bc & (lulesh::ZETA_M | lulesh::ZETA_P), 0)
            << "interior slab boundary must carry no zeta BC";
    }
}

TEST(SlabDomain, LzetaPointsIntoGhosts) {
    const domain mid(opts(6), slab_extent{2, 4, 6});
    const index_t ep = mid.elems_per_plane();
    for (index_t i = 0; i < ep; ++i) {
        EXPECT_EQ(mid.lzetam[static_cast<std::size_t>(i)],
                  mid.ghost_lower_slot() + i);
        EXPECT_EQ(mid.lzetap[static_cast<std::size_t>(mid.numElem() - ep + i)],
                  mid.ghost_upper_slot() + i);
    }
}

TEST(SlabDomain, DeltatimeIdenticalAcrossSlabs) {
    const options o = opts(9);
    const domain global(o);
    const domain a(o, slab_extent{0, 3, 9});
    const domain b(o, slab_extent{3, 7, 9});
    const domain c(o, slab_extent{7, 9, 9});
    EXPECT_EQ(global.deltatime, a.deltatime);
    EXPECT_EQ(global.deltatime, b.deltatime);
    EXPECT_EQ(global.deltatime, c.deltatime);
}

// ---------------- cluster & pack/unpack ----------------

TEST(Cluster, SplitsPlanesEvenly) {
    cluster c(opts(7), 3);
    EXPECT_EQ(c.num_slabs(), 3);
    EXPECT_EQ(c.slab(0).slab().local_planes(), 3);  // 7 = 3 + 2 + 2
    EXPECT_EQ(c.slab(1).slab().local_planes(), 2);
    EXPECT_EQ(c.slab(2).slab().local_planes(), 2);
    EXPECT_EQ(c.slab(0).slab().plane_begin, 0);
    EXPECT_EQ(c.slab(2).slab().plane_end, 7);
}

TEST(Cluster, RejectsBadSlabCounts) {
    EXPECT_THROW(cluster(opts(4), 0), std::invalid_argument);
    EXPECT_THROW(cluster(opts(4), 5), std::invalid_argument);
}

TEST(Cluster, PackUnpackCornerRoundTrip) {
    cluster c(opts(4), 2);
    domain& lower = c.slab(0);
    domain& upper = c.slab(1);
    // Tag the lower slab's top-plane corner forces.
    const auto base =
        static_cast<std::size_t>(lower.top_plane_elem_base()) * 8;
    for (std::size_t i = 0; i < static_cast<std::size_t>(lower.elems_per_plane()) * 8; ++i) {
        lower.fx_elem[base + i] = static_cast<real_t>(i) + 0.5;
        lower.fz_elem_hg[base + i] = -static_cast<real_t>(i);
    }
    auto buf = lulesh::dist::pack_corner_plane(lower, lower.top_plane_elem_base());
    lulesh::dist::unpack_corner_ghosts(upper, upper.ghost_lower_slot(), buf);
    const auto gbase = static_cast<std::size_t>(upper.ghost_lower_slot()) * 8;
    for (std::size_t i = 0; i < static_cast<std::size_t>(upper.elems_per_plane()) * 8; ++i) {
        ASSERT_EQ(upper.fx_elem[gbase + i], static_cast<real_t>(i) + 0.5);
        ASSERT_EQ(upper.fz_elem_hg[gbase + i], -static_cast<real_t>(i));
    }
}

TEST(Cluster, PackUnpackDelvRoundTrip) {
    cluster c(opts(4), 2);
    domain& lower = c.slab(0);
    domain& upper = c.slab(1);
    const auto base = static_cast<std::size_t>(lower.top_plane_elem_base());
    for (index_t i = 0; i < lower.elems_per_plane(); ++i) {
        lower.delv_zeta[base + static_cast<std::size_t>(i)] = 0.25 * i;
    }
    auto buf = lulesh::dist::pack_delv_plane(lower, lower.top_plane_elem_base());
    lulesh::dist::unpack_delv_ghosts(upper, upper.ghost_lower_slot(), buf);
    for (index_t i = 0; i < upper.elems_per_plane(); ++i) {
        ASSERT_EQ(upper.delv_zeta[static_cast<std::size_t>(
                      upper.ghost_lower_slot() + i)],
                  0.25 * i);
    }
}

TEST(Cluster, UnpackRejectsWrongSize) {
    cluster c(opts(4), 2);
    lulesh::dist::plane_buffer tiny(3, 0.0);
    EXPECT_THROW(
        lulesh::dist::unpack_corner_ghosts(c.slab(1), c.slab(1).ghost_lower_slot(), tiny),
        std::invalid_argument);
    EXPECT_THROW(
        lulesh::dist::unpack_delv_ghosts(c.slab(1), c.slab(1).ghost_lower_slot(), tiny),
        std::invalid_argument);
}

// Flips one bit of one payload value, preserving the message size.
void flip_payload_bit(lulesh::dist::plane_buffer& buf, std::size_t i) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(lulesh::real_t));
    std::memcpy(&bits, &buf[i], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&buf[i], &bits, sizeof(bits));
}

TEST(Cluster, CorruptCornerMessageFailsWithDataCorruption) {
    cluster c(opts(4), 2);
    auto buf = lulesh::dist::pack_corner_plane(c.slab(0),
                                               c.slab(0).top_plane_elem_base());
    flip_payload_bit(buf, 3);
    try {
        lulesh::dist::unpack_corner_ghosts(c.slab(1),
                                           c.slab(1).ghost_lower_slot(), buf);
        FAIL() << "corrupt corner message was accepted";
    } catch (const lulesh::simulation_error& e) {
        EXPECT_EQ(e.code(), lulesh::status::data_corruption);
        EXPECT_EQ(lulesh::exit_code_for(e.code()), 7);
    }
}

TEST(Cluster, CorruptDelvMessageFailsWithDataCorruption) {
    cluster c(opts(4), 2);
    auto buf = lulesh::dist::pack_delv_plane(c.slab(0),
                                             c.slab(0).top_plane_elem_base());
    flip_payload_bit(buf, 0);
    try {
        lulesh::dist::unpack_delv_ghosts(c.slab(1),
                                         c.slab(1).ghost_lower_slot(), buf);
        FAIL() << "corrupt delv message was accepted";
    } catch (const lulesh::simulation_error& e) {
        EXPECT_EQ(e.code(), lulesh::status::data_corruption);
    }
}

TEST(Cluster, CrcFailureNamesBoundaryDirectionAndBothCrcs) {
    // Reporting parity with checkpoint_error: a corrupt halo message must be
    // attributable — boundary index, stream direction, and the expected vs
    // actual checksum, all in the message.
    cluster c(opts(4), 2);
    auto buf = lulesh::dist::pack_corner_plane(c.slab(0),
                                               c.slab(0).top_plane_elem_base());
    flip_payload_bit(buf, 3);
    try {
        lulesh::dist::unpack_corner_ghosts(c.slab(1),
                                           c.slab(1).ghost_lower_slot(), buf,
                                           {0, "corner_up"});
        FAIL() << "corrupt corner message was accepted";
    } catch (const lulesh::simulation_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("boundary 0"), std::string::npos) << what;
        EXPECT_NE(what.find("corner_up"), std::string::npos) << what;
        EXPECT_NE(what.find("expected 0x"), std::string::npos) << what;
        EXPECT_NE(what.find("actual 0x"), std::string::npos) << what;
    }
}

TEST(Cluster, CrcFailureWithoutFabricContextSaysDirectUnpack) {
    cluster c(opts(4), 2);
    auto buf = lulesh::dist::pack_delv_plane(c.slab(0),
                                             c.slab(0).top_plane_elem_base());
    flip_payload_bit(buf, 0);
    try {
        lulesh::dist::unpack_delv_ghosts(c.slab(1),
                                         c.slab(1).ghost_lower_slot(), buf);
        FAIL() << "corrupt delv message was accepted";
    } catch (const lulesh::simulation_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("direct unpack"), std::string::npos) << what;
        EXPECT_NE(what.find("expected 0x"), std::string::npos) << what;
    }
}

TEST(Cluster, CorruptCrcSlotItselfIsAlsoDetected) {
    cluster c(opts(4), 2);
    auto buf = lulesh::dist::pack_delv_plane(c.slab(0),
                                             c.slab(0).top_plane_elem_base());
    flip_payload_bit(buf, buf.size() - 1);  // damage the checksum, not data
    EXPECT_THROW(lulesh::dist::unpack_delv_ghosts(
                     c.slab(1), c.slab(1).ghost_lower_slot(), buf),
                 lulesh::simulation_error);
}

// ---------------- equivalence with the single-domain run ----------------

/// Compares every slab's primary fields against the global domain's slices;
/// returns the max abs difference (0.0 = bitwise identical).
real_t cluster_vs_global(const cluster& c, const domain& global) {
    real_t max_diff = 0.0;
    auto acc = [&max_diff](real_t a, real_t b) {
        max_diff = std::max(max_diff, std::fabs(a - b));
    };
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        const domain& d = c.slab(s);
        const index_t eoff = d.elem_offset();
        for (index_t e = 0; e < d.numElem(); ++e) {
            const auto le = static_cast<std::size_t>(e);
            const auto ge = static_cast<std::size_t>(eoff + e);
            acc(d.e[le], global.e[ge]);
            acc(d.p[le], global.p[ge]);
            acc(d.q[le], global.q[ge]);
            acc(d.v[le], global.v[ge]);
            acc(d.ss[le], global.ss[ge]);
        }
        const index_t noff = d.slab().plane_begin * d.nodes_per_plane();
        for (index_t n = 0; n < d.numNode(); ++n) {
            const auto ln = static_cast<std::size_t>(n);
            const auto gn = static_cast<std::size_t>(noff + n);
            acc(d.x[ln], global.x[gn]);
            acc(d.y[ln], global.y[gn]);
            acc(d.z[ln], global.z[gn]);
            acc(d.xd[ln], global.xd[gn]);
            acc(d.yd[ln], global.yd[gn]);
            acc(d.zd[ln], global.zd[gn]);
        }
    }
    return max_diff;
}

/// Partition sizes ride in 16-bit fields so the parameter stays 16 bytes,
/// the size gtest prints in every instance's name.
struct DistParam {
    index_t slabs;
    dist_driver::exchange_mode mode;
    std::uint32_t threads;
    std::int16_t p_nodal = 64;
    std::int16_t p_elems = 64;
};
static_assert(sizeof(DistParam) == 16);

class DistEquivalence : public ::testing::TestWithParam<DistParam> {};

TEST_P(DistEquivalence, BitwiseIdenticalToSingleDomain) {
    const auto& param = GetParam();
    const options o = opts(8);
    const int iters = 30;

    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    cluster c(o, param.slabs);
    amt::runtime rt(param.threads);
    dist_driver drv(rt, {param.p_nodal, param.p_elems}, param.mode);
    const auto result = lulesh::dist::run_simulation(c, drv, iters);

    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, 30);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0)
        << param.slabs << " slabs diverged from the single-domain run";
    EXPECT_EQ(c.slab(0).deltatime, global.deltatime);
    EXPECT_EQ(c.slab(0).dtcourant, global.dtcourant);
    EXPECT_EQ(c.slab(0).dthydro, global.dthydro);
}

INSTANTIATE_TEST_SUITE_P(
    SlabsModesThreads, DistEquivalence,
    ::testing::Values(
        DistParam{1, dist_driver::exchange_mode::futurized, 2},
        DistParam{2, dist_driver::exchange_mode::futurized, 1},
        DistParam{2, dist_driver::exchange_mode::futurized, 3},
        DistParam{3, dist_driver::exchange_mode::futurized, 2},
        DistParam{4, dist_driver::exchange_mode::futurized, 4},
        DistParam{8, dist_driver::exchange_mode::futurized, 2},
        DistParam{2, dist_driver::exchange_mode::eager, 2},
        DistParam{3, dist_driver::exchange_mode::eager, 3},
        DistParam{4, dist_driver::exchange_mode::eager, 1},
        DistParam{8, dist_driver::exchange_mode::eager, 2},  // 1-plane slabs
        DistParam{2, dist_driver::exchange_mode::bulk_synchronous, 2},
        DistParam{3, dist_driver::exchange_mode::bulk_synchronous, 3},
        DistParam{8, dist_driver::exchange_mode::bulk_synchronous, 2},
        // Partitions that do not divide a 64-element plane, so boundary
        // planes split across chunks, and one larger than a whole plane:
        // the eager sends wait on exactly the chunks overlapping their
        // plane.
        DistParam{3, dist_driver::exchange_mode::eager, 2, 7, 13},
        DistParam{2, dist_driver::exchange_mode::eager, 3, 100, 100},
        DistParam{4, dist_driver::exchange_mode::eager, 2, 48, 80},
        DistParam{3, dist_driver::exchange_mode::futurized, 2, 7, 13},
        DistParam{3, dist_driver::exchange_mode::bulk_synchronous, 2, 7,
                  13}),
    [](const ::testing::TestParamInfo<DistParam>& pinfo) {
        const char* mode_name =
            pinfo.param.mode == dist_driver::exchange_mode::futurized ? "fut"
            : pinfo.param.mode == dist_driver::exchange_mode::eager   ? "eager"
                                                                      : "bsp";
        std::string name = std::string(mode_name) + "_s" +
                           std::to_string(pinfo.param.slabs) + "_t" +
                           std::to_string(pinfo.param.threads);
        if (pinfo.param.p_nodal != 64 || pinfo.param.p_elems != 64) {
            name += "_p" + std::to_string(pinfo.param.p_nodal) + "x" +
                    std::to_string(pinfo.param.p_elems);
        }
        return name;
    });

TEST(DistRun, FullRunToStoptimeMatchesSingleDomain) {
    const options o = opts(6);
    domain global(o);
    lulesh::serial_driver sdrv;
    const auto sref = lulesh::run_simulation(global, sdrv);

    cluster c(o, 3);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48});
    const auto result = lulesh::dist::run_simulation(c, drv);
    EXPECT_EQ(result.cycles, sref.cycles);
    EXPECT_EQ(result.final_origin_energy, sref.final_origin_energy);
    EXPECT_EQ(result.final_time, sref.final_time);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0);
}

TEST(DistRun, SecondClusterOfTheSameShapeReusesTheCompiledGraph) {
    // The compiled cluster graph is keyed by table shape and binds the
    // slabs when armed: a new cluster of the same shape — the previous one
    // destroyed, as a benchmark does between solves — replays the same
    // graph and matches a fresh driver bitwise.
    const options o = opts(8);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0),
                    lulesh::dist::retry_policy{});
    {
        cluster first(o, 4);
        ASSERT_EQ(lulesh::dist::run_simulation(first, drv, 5).run_status,
                  lulesh::status::ok);
    }
    cluster second(o, 4);
    ASSERT_EQ(lulesh::dist::run_simulation(second, drv, 10).run_status,
              lulesh::status::ok);
    ASSERT_NE(drv.compiled(), nullptr);
    EXPECT_EQ(drv.compiled()->replays(), 15u) << "the graph was recompiled";

    cluster ref(o, 4);
    dist_driver fresh(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                      std::chrono::milliseconds(0),
                      lulesh::dist::retry_policy{});
    ASSERT_EQ(lulesh::dist::run_simulation(ref, fresh, 10).run_status,
              lulesh::status::ok);
    for (index_t s = 0; s < 4; ++s) {
        EXPECT_EQ(lulesh::max_field_difference(second.slab(s), ref.slab(s)),
                  0.0)
            << "slab " << s;
    }
}

TEST(DistCompiledGraph, EagerSendNodesWaitOnExactlyTheirPackTaskDeps) {
    // Eager mode runs the audited table: every send node's predecessors
    // are exactly the plane producers build_slab_model declares for its
    // pack task, and every unpack task is one receive gate.
    const options o = opts(8);
    const lulesh::partition_sizes parts{7, 13};
    cluster c(o, 3);
    amt::runtime rt(2);
    dist_driver drv(rt, parts, dist_driver::exchange_mode::eager);
    ASSERT_EQ(lulesh::dist::run_simulation(c, drv, 1).run_status,
              lulesh::status::ok);
    const auto* ci = drv.compiled();
    ASSERT_NE(ci, nullptr);
    using node_id = amt::static_graph::node_id;
    const amt::static_graph& g = ci->graph();
    std::vector<std::vector<node_id>> preds(g.node_count());
    for (node_id id = 0; id < g.node_count(); ++id) {
        for (node_id succ : g.successors(id)) preds[succ].push_back(id);
    }
    std::size_t sends = 0;
    std::size_t receives = 0;
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        const auto slab = static_cast<std::size_t>(s);
        const auto model = lulesh::dist::build_slab_model(c.slab(s), parts, s);
        for (std::size_t i = 0; i < model.tasks.size(); ++i) {
            const auto& t = model.tasks[i];
            if (t.kind == lulesh::graph::body_kind::unpack_corner ||
                t.kind == lulesh::graph::body_kind::unpack_delv) {
                EXPECT_EQ(ci->node_of(slab, i),
                          lulesh::graph::compiled_iteration::no_node);
                ++receives;
                continue;
            }
            if (t.kind != lulesh::graph::body_kind::pack_corner &&
                t.kind != lulesh::graph::body_kind::pack_delv) {
                continue;
            }
            const node_id send = ci->node_of(slab, i);
            ASSERT_NE(send, lulesh::graph::compiled_iteration::no_node);
            std::vector<node_id> expected;
            for (int dep : t.deps) {
                expected.push_back(
                    ci->node_of(slab, static_cast<std::size_t>(dep)));
            }
            std::vector<node_id> got = preds[send];
            std::sort(expected.begin(), expected.end());
            std::sort(got.begin(), got.end());
            EXPECT_FALSE(expected.empty());
            EXPECT_EQ(got, expected) << "slab " << s << " " << t.site
                                     << " partition " << t.partition;
            ++sends;
        }
    }
    // 3 slabs: 2 boundaries x 2 directions x (corner + delv).
    EXPECT_EQ(sends, 8u);
    EXPECT_EQ(receives, 8u);
    EXPECT_EQ(ci->externals().size(), receives);
}

TEST(DistRun, SharedNodePlanesStayConsistentBetweenSlabs) {
    const options o = opts(6);
    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {32, 32});
    lulesh::dist::run_simulation(c, drv, 25);

    const domain& lower = c.slab(0);
    const domain& upper = c.slab(1);
    const index_t npp = lower.nodes_per_plane();
    const index_t lower_top_base = lower.numNode() - npp;
    for (index_t i = 0; i < npp; ++i) {
        const auto l = static_cast<std::size_t>(lower_top_base + i);
        const auto u = static_cast<std::size_t>(i);
        ASSERT_EQ(lower.x[l], upper.x[u]) << "shared node " << i;
        ASSERT_EQ(lower.xd[l], upper.xd[u]);
        ASSERT_EQ(lower.fx[l], upper.fx[u]);
    }
}

TEST(DistRun, ErrorInOneSlabAbortsTheCluster) {
    const options o = opts(6);
    cluster c(o, 3);
    c.slab(1).v[5] = -1.0;  // poison an interior slab
    amt::runtime rt(2);
    dist_driver drv(rt, {32, 32});
    const auto result = lulesh::dist::run_simulation(c, drv, 5);
    EXPECT_EQ(result.run_status, lulesh::status::volume_error);
}

TEST(DistRun, PerSlabCheckpointRestartIsBitwise) {
    // Each slab checkpoints independently; restoring all slabs into a fresh
    // cluster and resuming matches the uninterrupted cluster run bitwise.
    const options o = opts(6);
    amt::runtime rt(2);

    cluster whole(o, 3);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(whole, drv, 30);
    }

    cluster first(o, 3);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(first, drv, 15);
    }
    std::vector<std::string> blobs;
    for (index_t s = 0; s < first.num_slabs(); ++s) {
        std::ostringstream out;
        lulesh::save_checkpoint(first.slab(s), out);
        blobs.push_back(out.str());
    }

    cluster resumed(o, 3);
    for (index_t s = 0; s < resumed.num_slabs(); ++s) {
        std::istringstream in(blobs[static_cast<std::size_t>(s)]);
        lulesh::load_checkpoint(resumed.slab(s), in);
    }
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(resumed, drv, 30);
    }

    for (index_t s = 0; s < 3; ++s) {
        EXPECT_EQ(lulesh::max_field_difference(whole.slab(s), resumed.slab(s)),
                  0.0)
            << "slab " << s;
    }
    EXPECT_EQ(whole.cycle(), resumed.cycle());
}

TEST(DistRun, PerSlabChainFilesRoundTripBitwise) {
    // Per-slab v3 chains: a base record per slab at cycle 10, then delta
    // appends at 15 and 20.  Replaying every slab's chain into a fresh
    // cluster reproduces the cycle-20 state bitwise — and a torn tail in
    // one slab file would cost only that slab's last delta, not the set.
    const options o = opts(6);
    amt::runtime rt(2);
    const std::string path = "/tmp/lulesh_dist_chain.ckpt";
    for (index_t s = 0; s < 3; ++s) {
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }

    cluster run(o, 3);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(run, drv, 10);
    }
    lulesh::dist::save_cluster_chains(run, path);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(run, drv, 15);
    }
    lulesh::dist::append_cluster_deltas(run, path);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(run, drv, 20);
    }
    lulesh::dist::append_cluster_deltas(run, path);

    cluster loaded(o, 3);
    lulesh::dist::load_cluster_chains(loaded, path);
    for (index_t s = 0; s < 3; ++s) {
        EXPECT_EQ(lulesh::max_field_difference(run.slab(s), loaded.slab(s)),
                  0.0)
            << "slab " << s;
        EXPECT_EQ(loaded.slab(s).cycle, 20) << "slab " << s;
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }
}

TEST(DistRun, ModesProduceIdenticalResults) {
    const options o = opts(7);
    cluster a(o, 3);
    cluster b(o, 3);
    cluster e(o, 3);
    amt::runtime rt(2);
    dist_driver fut(rt, {40, 40}, dist_driver::exchange_mode::futurized);
    dist_driver bsp(rt, {40, 40}, dist_driver::exchange_mode::bulk_synchronous);
    dist_driver egr(rt, {40, 40}, dist_driver::exchange_mode::eager);
    lulesh::dist::run_simulation(a, fut, 20);
    lulesh::dist::run_simulation(b, bsp, 20);
    lulesh::dist::run_simulation(e, egr, 20);
    for (index_t s = 0; s < 3; ++s) {
        EXPECT_EQ(lulesh::max_field_difference(a.slab(s), b.slab(s)), 0.0)
            << "slab " << s;
        EXPECT_EQ(lulesh::max_field_difference(a.slab(s), e.slab(s)), 0.0)
            << "slab " << s;
    }
}

// ---------------- fault propagation across slabs ----------------

struct fault_guard {
    ~fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
    }
};

TEST(DistFault, InjectedFaultSurfacesRootCauseWithoutHanging) {
    fault_guard guard;
    // One slab's wave task fails; its error slot closes the halo fabric, so
    // every peer's chain resolves (with channel_closed) instead of waiting
    // forever — and the *root cause* is reported, not the cascade.
    amt::fault::plan p;
    p.site = "region_eos";
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(opts(6), 3);
    amt::runtime rt(2);
    dist_driver drv(rt, {40, 40}, dist_driver::exchange_mode::futurized);
    const auto result = lulesh::dist::run_simulation(c, drv, 5);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::task_fault);
    EXPECT_FALSE(result.error_message.empty());
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
}

TEST(DistFault, StalledSlabTimesOutWithStatusStalled) {
    fault_guard guard;
    // A slab task parks forever (simulated hung worker).  The halo timeout
    // notices that the iteration stopped making progress, fails the fabric,
    // and the run ends with status::stalled instead of hanging.
    amt::fault::plan p;
    p.kind = amt::fault::action::stall;
    p.site = "force";
    p.max_injections = 1;
    p.stall_timeout = std::chrono::seconds(60);  // timeout path must win
    amt::fault::arm(p);

    cluster c(opts(6), 3);
    amt::runtime rt(2);
    dist_driver drv(rt, {40, 40}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(150));
    const auto result = lulesh::dist::run_simulation(c, drv, 5);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::stalled);
    EXPECT_EQ(lulesh::exit_code_for(result.run_status), 5);
    EXPECT_FALSE(result.error_message.empty());
}

TEST(DistFault, BulkSynchronousFaultAbortsCleanly) {
    fault_guard guard;
    amt::fault::plan p;
    p.site = "node";
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {40, 40}, dist_driver::exchange_mode::bulk_synchronous);
    const auto result = lulesh::dist::run_simulation(c, drv, 5);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::task_fault);
    EXPECT_FALSE(result.error_message.empty());
}

TEST(DistRun, DriverNamesReflectMode) {
    amt::runtime rt(1);
    dist_driver fut(rt, {8, 8}, dist_driver::exchange_mode::futurized);
    dist_driver egr(rt, {8, 8}, dist_driver::exchange_mode::eager);
    dist_driver bsp(rt, {8, 8}, dist_driver::exchange_mode::bulk_synchronous);
    EXPECT_EQ(fut.name(), "dist_futurized");
    EXPECT_EQ(egr.name(), "dist_eager");
    EXPECT_EQ(bsp.name(), "dist_bsp");
}

}  // namespace
