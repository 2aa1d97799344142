// lulesh/kernels_node.cpp — LagrangeNodal kernels: stress and hourglass
// forces (element-wise producers), nodal force gather, acceleration,
// boundary conditions, velocity, and position.

#include <cmath>

#include "lulesh/elem_geometry.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/simd.hpp"

namespace lulesh::kernels {

namespace {

/// Corner forces of the elements of the block at k from their stress
/// state; writes d.fx_elem[k*8 ..] (and y/z), eight corners per element.
/// Returns the Jacobian determinants.
template <class T>
inline T stress_corner_forces(domain& d, index_t k, T sxx, T syy, T szz) {
    T B[3][8];
    T x_local[8], y_local[8], z_local[8];
    const index_t* nl = d.nodelist(k);
    simd::gather_corners(&d.x[0], nl, x_local);
    simd::gather_corners(&d.y[0], nl, y_local);
    simd::gather_corners(&d.z[0], nl, z_local);
    T determ;
    geom::calc_elem_shape_function_derivatives(x_local, y_local, z_local, B,
                                               &determ);
    geom::calc_elem_node_normals(B[0], B[1], B[2], x_local, y_local, z_local);
    T fx[8], fy[8], fz[8];
    geom::sum_elem_stresses_to_node_forces(B, sxx, syy, szz, fx, fy, fz);
    const auto base = static_cast<std::size_t>(k) * 8;
    simd::store_corners(&d.fx_elem[base], fx);
    simd::store_corners(&d.fy_elem[base], fy);
    simd::store_corners(&d.fz_elem[base], fz);
    return determ;
}

/// Hourglass control of the elements of the block at i: volume derivatives
/// and corner coordinates.  Returns volo * v (the hourglass "determ").
template <class T>
inline T hourglass_control(const domain& d, index_t i, T dvdx8[8],
                           T dvdy8[8], T dvdz8[8], T x8[8], T y8[8],
                           T z8[8]) {
    const index_t* nl = d.nodelist(i);
    simd::gather_corners(&d.x[0], nl, x8);
    simd::gather_corners(&d.y[0], nl, y8);
    simd::gather_corners(&d.z[0], nl, z8);
    geom::calc_elem_volume_derivative(dvdx8, dvdy8, dvdz8, x8, y8, z8);
    const auto k = static_cast<std::size_t>(i);
    return simd::load<T>(&d.volo[k]) * simd::load<T>(&d.v[k]);
}

/// FB hourglass force of the elements of the block at i2; writes
/// d.fx_elem_hg[i2*8 ..] (and y/z).
template <class T>
inline void fb_hourglass(domain& d, index_t i2, const T dvdx8[8],
                         const T dvdy8[8], const T dvdz8[8], const T x8[8],
                         const T y8[8], const T z8[8], T determ,
                         real_t hourg) {
    T hourgam[8][4];
    for (int i1 = 0; i1 < 4; ++i1) {
        const real_t* gam = geom::hourglass_gamma[i1];
        T hourmodx{}, hourmody{}, hourmodz{};
        for (int c = 0; c < 8; ++c) {
            hourmodx += x8[c] * gam[c];
            hourmody += y8[c] * gam[c];
            hourmodz += z8[c] * gam[c];
        }
        const T volinv = real_t(1.0) / determ;
        for (int c = 0; c < 8; ++c) {
            hourgam[c][i1] =
                gam[c] - volinv * (dvdx8[c] * hourmodx + dvdy8[c] * hourmody +
                                   dvdz8[c] * hourmodz);
        }
    }

    const auto k = static_cast<std::size_t>(i2);
    const T ss1 = simd::load<T>(&d.ss[k]);
    const T mass1 = simd::load<T>(&d.elemMass[k]);
    const T volume13 = simd::cbrt(determ);
    const T coefficient = -hourg * real_t(0.01) * ss1 * mass1 / volume13;

    T xd1[8], yd1[8], zd1[8];
    const index_t* nl = d.nodelist(i2);
    simd::gather_corners(&d.xd[0], nl, xd1);
    simd::gather_corners(&d.yd[0], nl, yd1);
    simd::gather_corners(&d.zd[0], nl, zd1);
    T hgfx[8], hgfy[8], hgfz[8];
    geom::calc_elem_fb_hourglass_force(xd1, yd1, zd1, hourgam, coefficient,
                                       hgfx, hgfy, hgfz);
    const auto base = k * 8;
    simd::store_corners(&d.fx_elem_hg[base], hgfx);
    simd::store_corners(&d.fy_elem_hg[base], hgfy);
    simd::store_corners(&d.fz_elem_hg[base], hgfz);
}

}  // namespace

void reference_scratch::resize(index_t num_elem) {
    const auto n = static_cast<std::size_t>(num_elem);
    for (auto* v : {&sigxx, &sigyy, &sigzz, &determ}) v->resize(n);
    for (auto* v : {&dvdx, &dvdy, &dvdz, &x8n, &y8n, &z8n}) v->resize(n * 8);
}

void init_stress_terms(const domain& d, index_t lo, index_t hi, real_t* sigxx,
                       real_t* sigyy, real_t* sigzz) {
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        sigxx[k] = sigyy[k] = sigzz[k] = -d.p[i] - d.q[i];
    }
}

bool integrate_stress(domain& d, index_t lo, index_t hi, const real_t* sigxx,
                      const real_t* sigyy, const real_t* sigzz) {
    bool ok = true;
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t k) {
        using T = decltype(lane);
        const T determ = stress_corner_forces(d, k, simd::load<T>(sigxx + k),
                                              simd::load<T>(sigyy + k),
                                              simd::load<T>(sigzz + k));
        if (simd::any(determ <= real_t(0.0))) ok = false;
    });
    return ok;
}

bool calc_hourglass_control(domain& d, index_t lo, index_t hi, real_t* dvdx,
                            real_t* dvdy, real_t* dvdz, real_t* x8n,
                            real_t* y8n, real_t* z8n, real_t* determ) {
    bool ok = true;
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        T dvdx8[8], dvdy8[8], dvdz8[8], x8[8], y8[8], z8[8];
        simd::store(determ + i, hourglass_control(d, i, dvdx8, dvdy8, dvdz8,
                                                  x8, y8, z8));
        const auto base = static_cast<std::size_t>(i) * 8;
        simd::store_corners(dvdx + base, dvdx8);
        simd::store_corners(dvdy + base, dvdy8);
        simd::store_corners(dvdz + base, dvdz8);
        simd::store_corners(x8n + base, x8);
        simd::store_corners(y8n + base, y8);
        simd::store_corners(z8n + base, z8);
        const auto k = static_cast<std::size_t>(i);
        if (simd::any(simd::load<T>(&d.v[k]) <= real_t(0.0))) ok = false;
    });
    return ok;
}

void calc_fb_hourglass_force(domain& d, index_t lo, index_t hi,
                             const real_t* dvdx, const real_t* dvdy,
                             const real_t* dvdz, const real_t* x8n,
                             const real_t* y8n, const real_t* z8n,
                             const real_t* determ, real_t hgcoef) {
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        T dvdx8[8], dvdy8[8], dvdz8[8], x8[8], y8[8], z8[8];
        const auto base = static_cast<std::size_t>(i) * 8;
        simd::load_corners(dvdx + base, dvdx8);
        simd::load_corners(dvdy + base, dvdy8);
        simd::load_corners(dvdz + base, dvdz8);
        simd::load_corners(x8n + base, x8);
        simd::load_corners(y8n + base, y8);
        simd::load_corners(z8n + base, z8);
        fb_hourglass(d, i, dvdx8, dvdy8, dvdz8, x8, y8, z8,
                     simd::load<T>(determ + i), hgcoef);
    });
}

bool force_stress_chunk(domain& d, index_t lo, index_t hi) {
    // Task-local sigma temporaries (paper trick T5): one value per element in
    // the chunk instead of a mesh-sized global array.
    bool ok = true;
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t k) {
        using T = decltype(lane);
        const auto i = static_cast<std::size_t>(k);
        const T sig = -simd::load<T>(&d.p[i]) - simd::load<T>(&d.q[i]);
        const T determ = stress_corner_forces(d, k, sig, sig, sig);
        if (simd::any(determ <= real_t(0.0))) ok = false;
    });
    return ok;
}

bool force_hourglass_chunk(domain& d, index_t lo, index_t hi) {
    // Fuses hourglass control and FB force per element block with
    // stack-local temporaries (tricks T3+T5).
    bool ok = true;
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        T dvdx8[8], dvdy8[8], dvdz8[8], x8[8], y8[8], z8[8];
        const T determ =
            hourglass_control(d, i, dvdx8, dvdy8, dvdz8, x8, y8, z8);
        const auto k = static_cast<std::size_t>(i);
        if (simd::any(simd::load<T>(&d.v[k]) <= real_t(0.0))) ok = false;
        if (d.hgcoef > real_t(0.0)) {
            fb_hourglass(d, i, dvdx8, dvdy8, dvdz8, x8, y8, z8, determ,
                         d.hgcoef);
        }
    });
    return ok;
}

void gather_forces(domain& d, index_t lo, index_t hi) {
    for (index_t n = lo; n < hi; ++n) {
        const index_t count = d.nodeElemCount(n);
        const index_t* corners = d.nodeElemCornerList(n);
        real_t fx_stress = 0, fy_stress = 0, fz_stress = 0;
        for (index_t c = 0; c < count; ++c) {
            const auto pos = static_cast<std::size_t>(corners[c]);
            fx_stress += d.fx_elem[pos];
            fy_stress += d.fy_elem[pos];
            fz_stress += d.fz_elem[pos];
        }
        real_t fx_hg = 0, fy_hg = 0, fz_hg = 0;
        for (index_t c = 0; c < count; ++c) {
            const auto pos = static_cast<std::size_t>(corners[c]);
            fx_hg += d.fx_elem_hg[pos];
            fy_hg += d.fy_elem_hg[pos];
            fz_hg += d.fz_elem_hg[pos];
        }
        const auto i = static_cast<std::size_t>(n);
        d.fx[i] = fx_stress + fx_hg;
        d.fy[i] = fy_stress + fy_hg;
        d.fz[i] = fz_stress + fz_hg;
    }
}

void calc_acceleration(domain& d, index_t lo, index_t hi) {
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        d.xdd[i] = d.fx[i] / d.nodalMass[i];
        d.ydd[i] = d.fy[i] / d.nodalMass[i];
        d.zdd[i] = d.fz[i] / d.nodalMass[i];
    }
}

void apply_acceleration_bc_masked(domain& d, index_t lo, index_t hi) {
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        const std::uint8_t m = d.symm_mask[i];
        if (m == 0) continue;
        if (m & NODE_SYMM_X) d.xdd[i] = real_t(0.0);
        if (m & NODE_SYMM_Y) d.ydd[i] = real_t(0.0);
        if (m & NODE_SYMM_Z) d.zdd[i] = real_t(0.0);
    }
}

void apply_acceleration_bc_x(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.xdd[static_cast<std::size_t>(d.symmX[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void apply_acceleration_bc_y(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.ydd[static_cast<std::size_t>(d.symmY[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void apply_acceleration_bc_z(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.zdd[static_cast<std::size_t>(d.symmZ[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void calc_velocity(domain& d, index_t lo, index_t hi, real_t dt) {
    const real_t u_cut = d.u_cut;
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        real_t xdtmp = d.xd[i] + d.xdd[i] * dt;
        if (std::fabs(xdtmp) < u_cut) xdtmp = real_t(0.0);
        d.xd[i] = xdtmp;

        real_t ydtmp = d.yd[i] + d.ydd[i] * dt;
        if (std::fabs(ydtmp) < u_cut) ydtmp = real_t(0.0);
        d.yd[i] = ydtmp;

        real_t zdtmp = d.zd[i] + d.zdd[i] * dt;
        if (std::fabs(zdtmp) < u_cut) zdtmp = real_t(0.0);
        d.zd[i] = zdtmp;
    }
}

void calc_position(domain& d, index_t lo, index_t hi, real_t dt) {
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        d.x[i] += d.xd[i] * dt;
        d.y[i] += d.yd[i] * dt;
        d.z[i] += d.zd[i] * dt;
    }
}

void velocity_position_chunk(domain& d, index_t lo, index_t hi, real_t dt) {
    // Two separate loops within one task body — the loops are deliberately
    // *not* fused element-wise, preserving the reference's computational
    // structure (paper Section IV, Figure 7).
    calc_velocity(d, lo, hi, dt);
    calc_position(d, lo, hi, dt);
}

}  // namespace lulesh::kernels
