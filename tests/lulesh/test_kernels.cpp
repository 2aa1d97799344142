// Unit tests for individual LULESH kernels: node-wise updates, EOS phases,
// time constraints, and the time-increment controller.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "lulesh/domain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/eos.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/simd.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
namespace k = lulesh::kernels;

options small_opts(index_t size = 4, index_t regions = 2) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

// ---------------- node kernels ----------------

TEST(NodeKernels, AccelerationIsForceOverMass) {
    domain d(small_opts());
    d.fx[5] = 10.0;
    d.fy[5] = -4.0;
    d.fz[5] = 2.0;
    k::calc_acceleration(d, 0, d.numNode());
    EXPECT_DOUBLE_EQ(d.xdd[5], 10.0 / d.nodalMass[5]);
    EXPECT_DOUBLE_EQ(d.ydd[5], -4.0 / d.nodalMass[5]);
    EXPECT_DOUBLE_EQ(d.zdd[5], 2.0 / d.nodalMass[5]);
}

TEST(NodeKernels, MaskedBcMatchesListBc) {
    domain a(small_opts());
    domain b(small_opts());
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        a.xdd[i] = b.xdd[i] = 1.0 + n;
        a.ydd[i] = b.ydd[i] = 2.0 + n;
        a.zdd[i] = b.zdd[i] = 3.0 + n;
    }
    k::apply_acceleration_bc_masked(a, 0, a.numNode());
    k::apply_acceleration_bc_x(b, 0, static_cast<index_t>(b.symmX.size()));
    k::apply_acceleration_bc_y(b, 0, static_cast<index_t>(b.symmY.size()));
    k::apply_acceleration_bc_z(b, 0, static_cast<index_t>(b.symmZ.size()));
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        EXPECT_EQ(a.xdd[i], b.xdd[i]) << "node " << n;
        EXPECT_EQ(a.ydd[i], b.ydd[i]) << "node " << n;
        EXPECT_EQ(a.zdd[i], b.zdd[i]) << "node " << n;
    }
}

TEST(NodeKernels, VelocityIntegratesAcceleration) {
    domain d(small_opts());
    d.xd[3] = 1.0;
    d.xdd[3] = 2.0;
    k::calc_velocity(d, 0, d.numNode(), 0.5);
    EXPECT_DOUBLE_EQ(d.xd[3], 2.0);
}

TEST(NodeKernels, VelocityCutSnapsSmallValuesToZero) {
    domain d(small_opts());
    d.xdd[3] = 1e-9;  // u_cut is 1e-7
    k::calc_velocity(d, 0, d.numNode(), 1.0);
    EXPECT_EQ(d.xd[3], 0.0);
}

TEST(NodeKernels, PositionIntegratesVelocity) {
    domain d(small_opts());
    const real_t x0 = d.x[7];
    d.xd[7] = 3.0;
    k::calc_position(d, 0, d.numNode(), 0.25);
    EXPECT_DOUBLE_EQ(d.x[7], x0 + 0.75);
}

TEST(NodeKernels, FusedVelocityPositionMatchesSeparate) {
    domain a(small_opts());
    domain b(small_opts());
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        a.xdd[i] = b.xdd[i] = 0.01 * n;
        a.ydd[i] = b.ydd[i] = -0.02 * n;
    }
    k::velocity_position_chunk(a, 0, a.numNode(), 0.1);
    k::calc_velocity(b, 0, b.numNode(), 0.1);
    k::calc_position(b, 0, b.numNode(), 0.1);
    for (std::size_t i = 0; i < a.x.size(); ++i) {
        EXPECT_EQ(a.x[i], b.x[i]);
        EXPECT_EQ(a.xd[i], b.xd[i]);
    }
}

TEST(ForceKernels, FusedChunksMatchLoopGranular) {
    // Run one force phase both ways on identical pre-evolved domains and
    // compare corner forces bitwise.
    options o = small_opts(6, 3);
    domain a(o);
    domain b(o);
    // Evolve a few steps serially to get a nontrivial state.
    lulesh::serial_driver drv;
    auto evolve = [&drv](domain& d) {
        for (int i = 0; i < 3; ++i) {
            k::time_increment(d);
            drv.advance(d);
        }
    };
    evolve(a);
    evolve(b);

    // a: fused chunk path; b: loop-granular path.
    const index_t ne = a.numElem();
    for (index_t lo = 0; lo < ne; lo += 7) {
        const index_t hi = std::min<index_t>(lo + 7, ne);
        ASSERT_TRUE(k::force_stress_chunk(a, lo, hi));
        ASSERT_TRUE(k::force_hourglass_chunk(a, lo, hi));
    }
    {
        const auto nes = static_cast<std::size_t>(ne);
        std::vector<real_t> sigxx(nes), sigyy(nes), sigzz(nes);
        std::vector<real_t> dvdx(nes * 8), dvdy(nes * 8), dvdz(nes * 8);
        std::vector<real_t> x8n(nes * 8), y8n(nes * 8), z8n(nes * 8);
        std::vector<real_t> determ(nes);
        k::init_stress_terms(b, 0, ne, sigxx.data(), sigyy.data(), sigzz.data());
        ASSERT_TRUE(k::integrate_stress(b, 0, ne, sigxx.data(), sigyy.data(),
                                        sigzz.data()));
        ASSERT_TRUE(k::calc_hourglass_control(b, 0, ne, dvdx.data(),
                                              dvdy.data(), dvdz.data(),
                                              x8n.data(), y8n.data(),
                                              z8n.data(), determ.data()));
        k::calc_fb_hourglass_force(b, 0, ne, dvdx.data(), dvdy.data(),
                                   dvdz.data(), x8n.data(), y8n.data(),
                                   z8n.data(), determ.data(), b.hgcoef);
    }
    for (std::size_t i = 0; i < a.fx_elem.size(); ++i) {
        ASSERT_EQ(a.fx_elem[i], b.fx_elem[i]) << "stress corner " << i;
        ASSERT_EQ(a.fx_elem_hg[i], b.fx_elem_hg[i]) << "hg corner " << i;
    }
}

TEST(ForceKernels, GatherSumsStressAndHourglass) {
    domain d(small_opts(2, 1));
    // Give node 0's single corner (elem 0, corner 0) known forces.
    d.fx_elem[0] = 1.5;
    d.fx_elem_hg[0] = 0.25;
    k::gather_forces(d, 0, 1);
    EXPECT_DOUBLE_EQ(d.fx[0], 1.75);
}

// ---------------- SIMD lanes ----------------

/// The domain and global temporaries one lane kernel reads and writes, and
/// the shuffled element list the EOS rows walk.
struct lane_state {
    domain d;
    k::reference_scratch s;
    std::vector<index_t> list;
};

/// Every real-valued array of a lane_state, by name.
std::vector<std::pair<const char*, const std::vector<real_t>*>> arrays_of(
    const lane_state& st) {
    const domain& d = st.d;
    const k::reference_scratch& s = st.s;
    return {{"x", &d.x},           {"y", &d.y},
            {"z", &d.z},           {"xd", &d.xd},
            {"yd", &d.yd},         {"zd", &d.zd},
            {"e", &d.e},           {"p", &d.p},
            {"q", &d.q},           {"qq", &d.qq},
            {"ql", &d.ql},         {"vnewc", &d.vnewc},
            {"v", &d.v},           {"volo", &d.volo},
            {"delv", &d.delv},     {"arealg", &d.arealg},
            {"ss", &d.ss},         {"elemMass", &d.elemMass},
            {"fx_elem", &d.fx_elem}, {"fy_elem", &d.fy_elem},
            {"fz_elem", &d.fz_elem}, {"fx_elem_hg", &d.fx_elem_hg},
            {"fy_elem_hg", &d.fy_elem_hg}, {"fz_elem_hg", &d.fz_elem_hg},
            {"dxx", &d.dxx},       {"dyy", &d.dyy},
            {"dzz", &d.dzz},       {"delv_xi", &d.delv_xi},
            {"delv_eta", &d.delv_eta}, {"delv_zeta", &d.delv_zeta},
            {"delx_xi", &d.delx_xi}, {"delx_eta", &d.delx_eta},
            {"delx_zeta", &d.delx_zeta}, {"vnew", &d.vnew},
            {"sigxx", &s.sigxx},   {"sigyy", &s.sigyy},
            {"sigzz", &s.sigzz},   {"dvdx", &s.dvdx},
            {"dvdy", &s.dvdy},     {"dvdz", &s.dvdz},
            {"x8n", &s.x8n},       {"y8n", &s.y8n},
            {"z8n", &s.z8n},       {"determ", &s.determ}};
}

/// An s=10 mesh with randomly perturbed coordinates, velocities and element
/// state, so that no two lanes of a block see the same element.  Element
/// `bad` is inverted (non-positive Jacobian determinant) by moving its one
/// unshared corner node through the element center, and gets a negative
/// relative volume.  The hourglass-control temporaries are filled from the
/// perturbed mesh, as calc_fb_hourglass_force's input.
///
/// The EOS state mixes expanding and compressing elements, and the list is
/// a shuffled permutation of the elements, so a block's lanes gather
/// elements that are not adjacent.  The first block of the chunks at list
/// position 5 holds, in order, an element at vnewc = eosvmin, one at
/// eosvmax, one whose energy drops below emin, one whose sound speed is
/// under the floor (zero pressure and a negative energy) and one whose delv
/// is NaN.
lane_state perturbed_state(index_t& bad) {
    lane_state st{domain(small_opts(10, 3)), {}, {}};
    domain& d = st.d;
    std::mt19937_64 rng(20240917);
    const real_t h = real_t(1.125) / 10;
    std::uniform_real_distribution<real_t> jitter(-0.1 * h, 0.1 * h);
    std::uniform_real_distribution<real_t> unit(-1.0, 1.0);
    std::uniform_real_distribution<real_t> near_one(0.8, 1.2);
    for (std::size_t n = 0; n < d.x.size(); ++n) {
        d.x[n] += jitter(rng);
        d.y[n] += jitter(rng);
        d.z[n] += jitter(rng);
        d.xd[n] = unit(rng);
        d.yd[n] = unit(rng);
        d.zd[n] = unit(rng);
    }
    const index_t ne = d.numElem();
    st.s.resize(ne);
    for (std::size_t i = 0; i < static_cast<std::size_t>(ne); ++i) {
        d.p[i] = unit(rng);
        d.q[i] = unit(rng);
        d.v[i] = near_one(rng);
        d.vnew[i] = near_one(rng);
        d.ss[i] = near_one(rng);
        st.s.sigxx[i] = unit(rng);
        st.s.sigyy[i] = unit(rng);
        st.s.sigzz[i] = unit(rng);
        d.e[i] = near_one(rng);
        d.delv[i] = 0.1 * unit(rng);
        d.qq[i] = near_one(rng);
        d.ql[i] = near_one(rng);
        d.vnewc[i] = near_one(rng);
    }
    st.list.resize(static_cast<std::size_t>(ne));
    std::iota(st.list.begin(), st.list.end(), index_t(0));
    std::shuffle(st.list.begin(), st.list.end(), rng);
    const auto entry = [&](std::size_t pos) {
        return static_cast<std::size_t>(st.list[pos]);
    };
    d.vnewc[entry(5)] = d.eosvmin;
    d.vnewc[entry(6)] = d.eosvmax;
    d.e[entry(7)] = 2 * d.emin;
    d.e[entry(8)] = -1.0;
    d.p[entry(8)] = 0.0;
    d.q[entry(8)] = 0.0;
    d.delv[entry(8)] = -0.05;
    d.delv[entry(9)] = std::numeric_limits<real_t>::quiet_NaN();

    // The first element past the first few that owns a node no other
    // element shares (a mesh corner): moving that node inverts it alone.
    bad = -1;
    for (index_t n = 0; n < d.numNode() && bad < 0; ++n) {
        const index_t e = d.nodeElemCornerList(n)[0] / 8;
        if (d.nodeElemCount(n) == 1 && e >= 3) {
            const index_t* nl = d.nodelist(e);
            for (auto* f : {&d.x, &d.y, &d.z}) {
                real_t center = 0;
                for (int c = 0; c < 8; ++c) {
                    center += (*f)[static_cast<std::size_t>(nl[c])];
                }
                center /= 8;
                real_t& node = (*f)[static_cast<std::size_t>(n)];
                node = 4 * center - 3 * node;
            }
            d.v[static_cast<std::size_t>(e)] = -0.5;
            bad = e;
        }
    }
    // Element `bad`'s negative volume makes this flag false.
    (void)k::calc_hourglass_control(
        d, 0, ne, st.s.dvdx.data(), st.s.dvdy.data(), st.s.dvdz.data(),
        st.s.x8n.data(), st.s.y8n.data(), st.s.z8n.data(),
        st.s.determ.data());
    return st;
}

/// One vectorized kernel over [lo, hi), whether it returns an ok flag (the
/// others return true), and, for the EOS, the fork-join step's phase loops
/// over the same range.
struct lane_kernel {
    const char* name;
    bool (*run)(lane_state&, index_t, index_t);
    bool flags;
    void (*fork_join)(lane_state&, index_t, index_t) = nullptr;
};

/// The EOS over list positions [lo, hi) of st.list: the task body, and
/// the fork-join step's phase loops.
template <int Rep>
bool eos_chunk(lane_state& st, index_t lo, index_t hi) {
    k::eval_eos_chunk(st.d, st.list.data(), lo, hi, Rep);
    return true;
}

template <int Rep>
void eos_phase_loops(lane_state& st, index_t lo, index_t hi) {
    st.s.eos.resize(st.list.size());
    k::visit_eos_phases(Rep, [&](k::eos_phase phase) {
        phase(st.d, st.list.data(), lo, hi, st.s.eos);
    });
}

const lane_kernel lane_kernels[] = {
    {"force_stress_chunk",
     [](lane_state& st, index_t lo, index_t hi) {
         return k::force_stress_chunk(st.d, lo, hi);
     },
     true},
    {"force_hourglass_chunk",
     [](lane_state& st, index_t lo, index_t hi) {
         return k::force_hourglass_chunk(st.d, lo, hi);
     },
     true},
    {"integrate_stress",
     [](lane_state& st, index_t lo, index_t hi) {
         return k::integrate_stress(st.d, lo, hi, st.s.sigxx.data(),
                                    st.s.sigyy.data(), st.s.sigzz.data());
     },
     true},
    {"calc_hourglass_control",
     [](lane_state& st, index_t lo, index_t hi) {
         return k::calc_hourglass_control(
             st.d, lo, hi, st.s.dvdx.data(), st.s.dvdy.data(),
             st.s.dvdz.data(), st.s.x8n.data(), st.s.y8n.data(),
             st.s.z8n.data(), st.s.determ.data());
     },
     true},
    {"calc_fb_hourglass_force",
     [](lane_state& st, index_t lo, index_t hi) {
         k::calc_fb_hourglass_force(
             st.d, lo, hi, st.s.dvdx.data(), st.s.dvdy.data(),
             st.s.dvdz.data(), st.s.x8n.data(), st.s.y8n.data(),
             st.s.z8n.data(), st.s.determ.data(), st.d.hgcoef);
         return true;
     },
     false},
    {"calc_kinematics",
     [](lane_state& st, index_t lo, index_t hi) {
         k::calc_kinematics(st.d, lo, hi, 1e-3);
         return true;
     },
     false},
    {"calc_monotonic_q_gradients",
     [](lane_state& st, index_t lo, index_t hi) {
         k::calc_monotonic_q_gradients(st.d, lo, hi);
         return true;
     },
     false},
    {"eval_eos_chunk rep 1", eos_chunk<1>, false, eos_phase_loops<1>},
    {"eval_eos_chunk rep 20", eos_chunk<20>, false, eos_phase_loops<20>},
};

/// Reports every array of `got` that differs bytewise from `want`.
void expect_same_arrays(const lane_state& got, const lane_state& want,
                        const std::string& where) {
    const auto g_arrays = arrays_of(got);
    const auto w_arrays = arrays_of(want);
    for (std::size_t a = 0; a < g_arrays.size(); ++a) {
        const auto& g = *g_arrays[a].second;
        const auto& x = *w_arrays[a].second;
        ASSERT_EQ(g.size(), x.size());
        if (std::memcmp(g.data(), x.data(), g.size() * sizeof(real_t)) == 0) {
            continue;
        }
        std::size_t i = 0;
        while (std::memcmp(&g[i], &x[i], sizeof(real_t)) == 0) ++i;
        ADD_FAILURE() << where << ": " << g_arrays[a].first << "[" << i
                      << "] is " << g[i] << ", scalar " << x[i];
    }
}

TEST(SimdLanes, EveryKernelMatchesItsScalarInstantiationBytewise) {
    // Each chunk runs once through the kernel (simd::width elements per
    // vector, the remainder as real_t) and once one element at a time: a
    // one-element range runs only the real_t instantiation, the oracle.
    // Whole arrays are compared, so a write outside the chunk shows too.
    // The EOS rows also run the fork-join step's loops over the chunk.
    index_t bad = -1;
    const lane_state base = perturbed_state(bad);
    ASSERT_GE(bad, 3);
    constexpr index_t w = lulesh::simd::width;
    std::vector<std::pair<index_t, index_t>> chunks;
    for (const index_t len : {index_t(1), w - 1, w, w + 3, index_t(512)}) {
        if (len > 0) chunks.emplace_back(5, 5 + len);
    }
    // A block whose lane 3 (lane 0 without SIMD) is the inverted element.
    const index_t bad_lo = w >= 4 ? bad - 3 : bad;
    chunks.emplace_back(bad_lo, bad_lo + std::max<index_t>(w, 1));

    for (const lane_kernel& kernel : lane_kernels) {
        for (const auto& [lo, hi] : chunks) {
            const std::string where = std::string(kernel.name) + " on [" +
                                      std::to_string(lo) + ", " +
                                      std::to_string(hi) + ")";
            lane_state lanes = base;
            lane_state scalar = base;
            const bool lanes_ok = kernel.run(lanes, lo, hi);
            bool scalar_ok = true;
            for (index_t e = lo; e < hi; ++e) {
                scalar_ok = kernel.run(scalar, e, e + 1) && scalar_ok;
            }
            EXPECT_EQ(scalar_ok, !(kernel.flags && lo <= bad && bad < hi))
                << where;
            EXPECT_EQ(lanes_ok, scalar_ok) << where;
            expect_same_arrays(lanes, scalar, where);
            if (kernel.fork_join != nullptr) {
                lane_state fork_join = base;
                kernel.fork_join(fork_join, lo, hi);
                expect_same_arrays(fork_join, scalar, where + " (fork-join)");
            }
        }
    }
}

// ---------------- EOS phases ----------------

namespace eos = lulesh::kernels::eos;

TEST(Eos, PressureIsTwoThirdsCompressedEnergy) {
    domain d(small_opts(2, 1));
    const eos::constants c(d);
    eos::values<real_t> s{};
    eos::inputs<real_t> in{};
    in.vnewc = 1.0;
    s.compression = 0.5;
    s.e_new = 3.0;
    eos::bvc_of_compression(s, in, c);
    EXPECT_DOUBLE_EQ(s.bvc, (2.0 / 3.0) * 1.5);
    EXPECT_DOUBLE_EQ(s.pbvc, 2.0 / 3.0);
    eos::pressure_new(s, in, c);
    EXPECT_DOUBLE_EQ(s.p_new, 3.0);
}

TEST(Eos, PressureCutSnapsToZero) {
    domain d(small_opts(2, 1));
    const real_t vnewc = 1.0;
    const real_t bvc = 2.0 / 3.0;
    const real_t e = 1e-8;  // below p_cut
    EXPECT_EQ(eos::pressure(bvc, e, vnewc, eos::constants(d)), 0.0);
}

TEST(Eos, PressureClampedToPmin) {
    domain d(small_opts(2, 1));
    const real_t vnewc = 1.0;
    const real_t bvc = 2.0 / 3.0;
    const real_t e = -5.0;
    EXPECT_EQ(eos::pressure(bvc, e, vnewc, eos::constants(d)), d.pmin);
}

TEST(Eos, EnergyStep1ClampsToEmin) {
    domain d(small_opts(2, 1));
    eos::values<real_t> s{};
    s.e_old = -1e20;
    s.delvc = 0.0;
    s.p_old = 0.0;
    s.q_old = 0.0;
    s.work = 0.0;
    eos::energy_step1(s, eos::inputs<real_t>{}, eos::constants(d));
    EXPECT_EQ(s.e_new, d.emin);
}

TEST(Eos, ExpansionZeroesViscosity) {
    domain d(small_opts(2, 1));
    eos::values<real_t> s{};
    s.delvc = 0.5;  // expanding: q_new must be zero
    s.comp_half_step = 0.0;
    s.e_new = 1.0;
    s.pbvc = 2.0 / 3.0;
    s.bvc = 2.0 / 3.0;
    s.p_half_step = 1.0;
    s.p_old = 0.0;
    s.q_old = 0.0;
    s.ql_old = 5.0;
    s.qq_old = 7.0;
    eos::energy_q_half(s, eos::inputs<real_t>{}, eos::constants(d));
    EXPECT_EQ(s.q_new, 0.0);
}

TEST(Eos, CompressionViscosityUsesSoundSpeed) {
    domain d(small_opts(2, 1));
    eos::values<real_t> s{};
    s.delvc = -0.1;  // compressing
    s.comp_half_step = 0.0;
    s.e_new = 0.0;
    s.pbvc = 0.0;
    s.bvc = 1.0;
    s.p_half_step = 1.0;  // ssc = sqrt(1 * 1 / 1) = 1
    s.p_old = 0.0;
    s.q_old = 0.0;
    s.ql_old = 5.0;
    s.qq_old = 7.0;
    eos::energy_q_half(s, eos::inputs<real_t>{}, eos::constants(d));
    EXPECT_DOUBLE_EQ(s.q_new, 12.0);  // ssc * ql + qq
}

/// The viscosity selects of one block whose lane 0 has a NaN delv, lane 1
/// expands and the others compress, against the reference's branches:
/// `if (delvc > 0) q = 0; else q = ...` at the half step and
/// `if (delvc <= 0) q = ...` at the end, so a NaN delv computes the
/// half-step q and keeps it.
template <class T>
void check_viscosity_selects_follow_the_branches(const domain& d) {
    constexpr int n = lulesh::simd::lanes<T>;
    real_t delv[n];
    for (int l = 0; l < n; ++l) delv[l] = -0.1;
    delv[0] = std::numeric_limits<real_t>::quiet_NaN();
    if (n > 1) delv[1] = 0.1;
    auto splat = [](real_t x) { return lulesh::simd::splat<T>(x); };
    eos::values<T> s{};
    s.delvc = lulesh::simd::load<T>(delv);
    s.pbvc = splat(0.0);
    s.e_new = splat(0.0);
    s.bvc = splat(1.0);
    s.p_half_step = splat(1.0);  // ssc = 1 at the half step
    s.ql_old = splat(5.0);
    s.qq_old = splat(7.0);
    eos::inputs<T> in{};
    in.vnewc = splat(1.0);
    const eos::constants c(d);
    eos::energy_q_half(s, in, c);
    real_t q[n];
    lulesh::simd::store(q, s.q_new);
    for (int l = 0; l < n; ++l) {
        EXPECT_EQ(q[l], delv[l] > 0 ? 0.0 : 12.0) << "half step, lane " << l;
    }

    s.q_new = splat(42.0);
    s.e_new = splat(0.0);
    s.p_new = splat(1.0);  // ssc = vnewc^2 bvc p_new = 1 at the end
    eos::energy_q_final(s, in, c);
    lulesh::simd::store(q, s.q_new);
    for (int l = 0; l < n; ++l) {
        EXPECT_EQ(q[l], delv[l] <= 0 ? 12.0 : 42.0) << "final, lane " << l;
    }
}

TEST(Eos, ViscositySelectsFollowTheScalarBranchesOnNaN) {
    domain d(small_opts(2, 1));
    check_viscosity_selects_follow_the_branches<real_t>(d);
    check_viscosity_selects_follow_the_branches<lulesh::simd::vec>(d);
}

TEST(Eos, GatherPhasesReadRegionElements) {
    domain d(small_opts(3, 1));
    d.e[5] = 42.0;
    d.delv[5] = -0.25;
    d.p[5] = 3.0;
    d.q[5] = 1.0;
    d.qq[5] = 0.5;
    d.ql[5] = 0.25;
    const index_t list[2] = {5, 0};
    k::eos_scratch s;
    s.resize(2);
    // One repetition's loops; its gathers fill the *_old arrays and
    // delvc, which the later phases only read.
    for (const k::eos_phase phase : k::eos_repetition_phases()) {
        phase(d, list, 0, 2, s);
    }
    EXPECT_EQ(s.e_old[0], 42.0);
    EXPECT_EQ(s.delvc[0], -0.25);
    EXPECT_EQ(s.p_old[0], 3.0);
    EXPECT_EQ(s.q_old[0], 1.0);
    EXPECT_EQ(s.qq_old[0], 0.5);
    EXPECT_EQ(s.ql_old[0], 0.25);
    EXPECT_EQ(s.e_old[1], d.e[0]);
}

TEST(Eos, CompressionFormula) {
    domain d(small_opts(2, 1));
    eos::values<real_t> s{};
    eos::inputs<real_t> in{};
    in.vnewc = 0.8;
    s.delvc = -0.2;
    eos::compression(s, in, eos::constants(d));
    EXPECT_NEAR(s.compression, 1.0 / 0.8 - 1.0, 1e-15);
    EXPECT_NEAR(s.comp_half_step, 1.0 / 0.9 - 1.0, 1e-15);
}

TEST(Eos, EvalChunkRepeatsAreIdempotentOnStore) {
    // rep > 1 repeats the *computation* but gathers from the same committed
    // state each time, so the stored result equals the rep = 1 result.
    options o = small_opts(4, 1);
    domain a(o);
    domain b(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 2; ++i) {
        k::time_increment(a);
        drv.advance(a);
        k::time_increment(b);
        drv.advance(b);
    }
    const auto& list = a.regElemList(0);
    const auto count = static_cast<index_t>(list.size());
    k::eval_eos_chunk(a, list.data(), 0, count, 1);
    k::eval_eos_chunk(b, b.regElemList(0).data(), 0, count, 20);
    for (std::size_t i = 0; i < a.e.size(); ++i) {
        ASSERT_EQ(a.e[i], b.e[i]) << "elem " << i;
        ASSERT_EQ(a.p[i], b.p[i]);
        ASSERT_EQ(a.q[i], b.q[i]);
        ASSERT_EQ(a.ss[i], b.ss[i]);
    }
}

TEST(Eos, MaterialClampProducesVnewcInRange) {
    domain d(small_opts(3, 1));
    d.vnew[0] = 1e12;   // above eosvmax
    d.vnew[1] = 1e-12;  // below eosvmin
    d.vnew[2] = 0.9;
    EXPECT_TRUE(k::apply_material_vnewc(d, 0, d.numElem()));
    EXPECT_EQ(d.vnewc[0], d.eosvmax);
    EXPECT_EQ(d.vnewc[1], d.eosvmin);
    EXPECT_EQ(d.vnewc[2], 0.9);
}

TEST(Eos, MaterialClampFlagsNonPositiveVolume) {
    domain d(small_opts(3, 1));
    d.v[4] = -0.5;
    d.eosvmin = 0.0;  // disable the clamp so the error path triggers
    EXPECT_FALSE(k::apply_material_vnewc(d, 0, d.numElem()));
}

TEST(VolumeUpdate, SnapsNearUnityToOne) {
    domain d(small_opts(2, 1));
    d.vnew[0] = 1.0 + 1e-12;  // inside v_cut
    d.vnew[1] = 1.1;
    k::update_volumes(d, 0, d.numElem());
    EXPECT_EQ(d.v[0], 1.0);
    EXPECT_EQ(d.v[1], 1.1);
}

// ---------------- time constraints ----------------

TEST(Constraints, QuiescentElementsImposeNoConstraint) {
    domain d(small_opts(3, 1));
    const auto& list = d.regElemList(0);
    const auto c = k::calc_time_constraints(d, list.data(), 0,
                                            static_cast<index_t>(list.size()));
    EXPECT_EQ(c.dtcourant, 1.0e20);
    EXPECT_EQ(c.dthydro, 1.0e20);
}

TEST(Constraints, CourantUsesSoundSpeedAndLength) {
    domain d(small_opts(2, 1));
    d.vdov[0] = 1.0;  // deforming, positive: no qqc2 term
    d.ss[0] = 2.0;
    d.arealg[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    EXPECT_DOUBLE_EQ(c.dtcourant, 0.5 / 2.0);
}

TEST(Constraints, CompressionAddsViscosityTerm) {
    domain d(small_opts(2, 1));
    d.vdov[0] = -1.0;
    d.ss[0] = 2.0;
    d.arealg[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    const real_t qqc2 = 64.0 * d.qqc * d.qqc;
    const real_t expected = 0.5 / std::sqrt(4.0 + qqc2 * 0.25 * 1.0);
    EXPECT_DOUBLE_EQ(c.dtcourant, expected);
}

TEST(Constraints, HydroBoundsVolumeChangeRate) {
    domain d(small_opts(2, 1));
    d.vdov[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    EXPECT_NEAR(c.dthydro, d.dvovmax / 0.5, 1e-12);
}

TEST(Constraints, MinCombinesComponentWise) {
    k::dt_constraints a{1.0, 5.0};
    k::dt_constraints b{2.0, 3.0};
    const auto c = k::min_constraints(a, b);
    EXPECT_EQ(c.dtcourant, 1.0);
    EXPECT_EQ(c.dthydro, 3.0);
}

// ---------------- time increment ----------------

TEST(TimeIncrement, FirstCycleUsesInitialDeltatime) {
    domain d(small_opts());
    const real_t dt0 = d.deltatime;
    k::time_increment(d);
    EXPECT_EQ(d.deltatime, dt0);
    EXPECT_EQ(d.cycle, 1);
    EXPECT_DOUBLE_EQ(d.time_, dt0);
}

TEST(TimeIncrement, CourantHalvedHydroTwoThirds) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1e-6;
    d.dthydro = 1e20;
    // Unconstrained growth would be 5e-7; the ratio clamp caps at 1.2x.
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1.2e-8, 1e-20);

    domain e(small_opts());
    e.cycle = 1;
    e.deltatime = 4e-7;
    e.dtcourant = 1e20;
    e.dthydro = 6e-7;  // hydro * 2/3 = 4e-7: ratio 1.0, below multlb → keep
    k::time_increment(e);
    EXPECT_NEAR(e.deltatime, 4e-7, 1e-20);
}

TEST(TimeIncrement, ShrinksImmediatelyWhenConstraintDrops) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-6;
    d.dtcourant = 1e-7;  // newdt = 5e-8, ratio < 1: taken as-is
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 5e-8, 1e-20);
}

TEST(TimeIncrement, GrowthLimitedToUpperBound) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1.0;  // would allow 0.5
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1.2e-8, 1e-22);  // olddt * deltatimemultub
}

TEST(TimeIncrement, SmallGrowthSnapsToOldDt) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 2.1e-8;  // newdt = 1.05e-8, ratio 1.05 < multlb 1.1 → olddt
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1e-8, 1e-22);
}

TEST(TimeIncrement, CappedAtDtmax) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 0.9e-2;
    d.deltatimemultub = 10.0;
    d.dtcourant = 1.0;
    d.dthydro = 1e20;
    d.stoptime = 1e3;  // keep targetdt out of the way
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.deltatime, d.dtmax);
}

TEST(TimeIncrement, LastStepHitsStoptimeExactly) {
    domain d(small_opts());
    d.cycle = 1;
    d.time_ = 0.0099999;
    d.deltatime = 1e-5;
    d.dtcourant = 1e20;
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.time_, d.stoptime);
}

TEST(TimeIncrement, FixedDtOverridesConstraints) {
    domain d(small_opts());
    d.dtfixed = 1e-7;
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1e-20;
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.deltatime, 1e-7);
}

TEST(TimeIncrement, TimeAdvancesMonotonicallyUntilStoptime) {
    domain d(small_opts());
    real_t last = 0.0;
    int cycles = 0;
    while (d.time_ < d.stoptime && cycles < 10000) {
        k::time_increment(d);
        EXPECT_GT(d.time_, last);
        last = d.time_;
        ++cycles;
    }
    EXPECT_DOUBLE_EQ(d.time_, d.stoptime);
    EXPECT_EQ(d.cycle, cycles);
}

}  // namespace
