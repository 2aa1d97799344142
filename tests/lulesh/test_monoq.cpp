// Behavioural tests of the monotonic artificial viscosity: the limiter must
// vanish in smooth (uniform-gradient) flow, fire at shocks, honor the
// symmetry/free boundary variants, and shut off in expansion — the defining
// properties of the monotonic Q scheme.

#include <gtest/gtest.h>

#include "lulesh/domain.hpp"
#include "lulesh/eos.hpp"
#include "lulesh/kernels.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
namespace k = lulesh::kernels;

/// 3^3 domain with hand-set gradient fields: every element gets the given
/// delv (all directions), unit delx, compressing vdov, and sane volumes.
domain make_q_testbed(real_t delv_value, real_t vdov_value) {
    options o;
    o.size = 3;
    o.num_regions = 1;
    domain d(o);
    for (index_t i = 0; i < d.numElem(); ++i) {
        const auto e = static_cast<std::size_t>(i);
        d.delv_xi[e] = delv_value;
        d.delv_eta[e] = delv_value;
        d.delv_zeta[e] = delv_value;
        d.delx_xi[e] = 1.0;
        d.delx_eta[e] = 1.0;
        d.delx_zeta[e] = 1.0;
        d.vdov[e] = vdov_value;
        d.vnew[e] = 1.0;
    }
    return d;
}

void run_monoq(domain& d) {
    const auto& list = d.regElemList(0);
    k::calc_monotonic_q_region(d, list.data(), 0,
                               static_cast<index_t>(list.size()));
}

/// Element id of (i, j, k) in a 3^3 mesh.
index_t elem(index_t i, index_t j, index_t k_) { return k_ * 9 + j * 3 + i; }

TEST(MonotonicQ, UniformCompressionIsInviscidInTheInterior) {
    // Smooth flow: neighbor gradients equal own → limiter phi = 1 → q = 0.
    domain d = make_q_testbed(-0.1, -0.3);
    run_monoq(d);
    const auto center = static_cast<std::size_t>(elem(1, 1, 1));
    EXPECT_EQ(d.ql[center], 0.0);
    EXPECT_EQ(d.qq[center], 0.0);
}

TEST(MonotonicQ, SymmetryCornersActSmoothToo) {
    // The all-minus corner (0,0,0) sees SYMM on three faces: delvm = own,
    // which under a uniform field is indistinguishable from interior.
    domain d = make_q_testbed(-0.1, -0.3);
    run_monoq(d);
    const auto corner = static_cast<std::size_t>(elem(0, 0, 0));
    EXPECT_EQ(d.ql[corner], 0.0);
    EXPECT_EQ(d.qq[corner], 0.0);
}

TEST(MonotonicQ, FreeSurfacesSeeZeroNeighborAndGetViscosity) {
    // The all-plus corner (2,2,2) has FREE on three faces: delvp = 0 caps
    // phi at 0, so the full viscosity applies there even in uniform flow.
    domain d = make_q_testbed(-0.1, -0.3);
    run_monoq(d);
    const auto corner = static_cast<std::size_t>(elem(2, 2, 2));
    EXPECT_GT(d.ql[corner], 0.0);
    EXPECT_GT(d.qq[corner], 0.0);
}

TEST(MonotonicQ, ExpansionShutsViscosityOff) {
    // vdov > 0 → q = 0 everywhere, whatever the gradients say.
    domain d = make_q_testbed(-0.1, +0.5);
    run_monoq(d);
    for (index_t i = 0; i < d.numElem(); ++i) {
        EXPECT_EQ(d.ql[static_cast<std::size_t>(i)], 0.0) << "elem " << i;
        EXPECT_EQ(d.qq[static_cast<std::size_t>(i)], 0.0) << "elem " << i;
    }
}

TEST(MonotonicQ, IsolatedShockGetsFullViscosity) {
    // Only the center element compresses; its neighbors carry delv = 0, so
    // the limiter finds a discontinuity (phi = 0) and applies the full
    // linear + quadratic terms.
    domain d = make_q_testbed(0.0, -0.3);
    const auto center = static_cast<std::size_t>(elem(1, 1, 1));
    d.delv_xi[center] = -0.1;
    d.delv_eta[center] = -0.1;
    d.delv_zeta[center] = -0.1;
    run_monoq(d);

    // Expected with phi = 0: qlin = -qlc * rho * 3 * delvx,
    //                        qquad = qqc * rho * 3 * delvx^2.
    const real_t rho = d.elemMass[center] / (d.volo[center] * d.vnew[center]);
    const real_t delvx = -0.1;  // delv * delx with delx = 1
    EXPECT_NEAR(d.ql[center], -d.qlc_monoq * rho * 3.0 * delvx, 1e-12);
    EXPECT_NEAR(d.qq[center], d.qqc_monoq * rho * 3.0 * delvx * delvx, 1e-14);
    // Neighbors are not compressing (vdov < 0 though): their own delv = 0
    // makes delvxxi = 0 → no viscosity.
    EXPECT_EQ(d.ql[static_cast<std::size_t>(elem(0, 1, 1))], 0.0);
}

TEST(MonotonicQ, LimiterClampsOvershoot) {
    // Neighbor gradients much larger than own: phi is capped at
    // monoq_max_slope (1.0), never amplifying beyond smooth.
    domain d = make_q_testbed(-0.1, -0.3);
    const auto center = static_cast<std::size_t>(elem(1, 1, 1));
    for (index_t dir = 0; dir < 1; ++dir) {
        d.delv_xi[static_cast<std::size_t>(elem(0, 1, 1))] = -10.0;
        d.delv_xi[static_cast<std::size_t>(elem(2, 1, 1))] = -10.0;
    }
    run_monoq(d);
    EXPECT_EQ(d.ql[center], 0.0);  // phi clamped to 1 → still inviscid
}

TEST(MonotonicQ, OnlyPositiveCompressionTermsContribute) {
    // delv > 0 in one direction (local expansion along xi) must not create
    // negative viscosity: that term is clamped to zero.
    domain d = make_q_testbed(-0.1, -0.3);
    const auto center = static_cast<std::size_t>(elem(1, 1, 1));
    // Make xi direction expanding for the center and its xi neighbors so
    // the phi computation stays smooth.
    for (index_t i : {elem(0, 1, 1), elem(1, 1, 1), elem(2, 1, 1)}) {
        d.delv_xi[static_cast<std::size_t>(i)] = +0.2;
    }
    // Shock in eta/zeta: zero the neighbors there.
    d.delv_eta[static_cast<std::size_t>(elem(1, 0, 1))] = 0.0;
    d.delv_eta[static_cast<std::size_t>(elem(1, 2, 1))] = 0.0;
    d.delv_zeta[static_cast<std::size_t>(elem(1, 1, 0))] = 0.0;
    d.delv_zeta[static_cast<std::size_t>(elem(1, 1, 2))] = 0.0;
    run_monoq(d);
    const real_t rho = d.elemMass[center] / (d.volo[center] * d.vnew[center]);
    // Only the two shocked directions contribute (delvx = -0.1 each).
    EXPECT_NEAR(d.ql[center], -d.qlc_monoq * rho * 2.0 * (-0.1), 1e-12);
}

TEST(MonotonicQ, RegionSubsetTouchesOnlyItsElements) {
    domain d = make_q_testbed(-0.1, -0.3);
    // Sentinel values everywhere; run the kernel on a 3-element sub-list.
    for (index_t i = 0; i < d.numElem(); ++i) {
        d.ql[static_cast<std::size_t>(i)] = -7.0;
        d.qq[static_cast<std::size_t>(i)] = -7.0;
    }
    const index_t sub[3] = {elem(2, 2, 2), elem(0, 0, 0), elem(1, 1, 1)};
    k::calc_monotonic_q_region(d, sub, 0, 3);
    int touched = 0;
    for (index_t i = 0; i < d.numElem(); ++i) {
        if (d.ql[static_cast<std::size_t>(i)] != -7.0) ++touched;
    }
    EXPECT_EQ(touched, 3);
}

TEST(MonotonicQ, EosClampBranchesFireAtExactBounds) {
    options o;
    o.size = 2;
    o.num_regions = 1;
    domain d(o);
    namespace eos = k::eos;
    const eos::constants c(d);
    // Element 0 exactly at eosvmin, element 1 exactly at eosvmax.
    eos::values<real_t> s[2] = {};
    eos::inputs<real_t> in[2] = {};
    in[0].vnewc = d.eosvmin;
    in[1].vnewc = d.eosvmax;
    for (int i = 0; i < 2; ++i) {
        s[i].delvc = -0.1;
        s[i].p_old = 3.0;
        eos::compression(s[i], in[i], c);
    }
    const real_t comp0_before = s[0].compression;
    for (int i = 0; i < 2; ++i) eos::clamp_vmin(s[i], in[i], c);
    EXPECT_EQ(s[0].comp_half_step, comp0_before);  // vmin: half = full step
    for (int i = 0; i < 2; ++i) eos::clamp_vmax(s[i], in[i], c);
    EXPECT_EQ(s[1].p_old, 0.0);
    EXPECT_EQ(s[1].compression, 0.0);
    EXPECT_EQ(s[1].comp_half_step, 0.0);
    EXPECT_EQ(s[0].p_old, 3.0);  // element 0 untouched by vmax clamp
}

}  // namespace
