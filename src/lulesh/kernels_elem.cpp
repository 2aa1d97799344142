// lulesh/kernels_elem.cpp — LagrangeElements kernels: kinematics (new
// volumes, strain rates) and the end-of-step volume update.

#include <cmath>

#include "lulesh/elem_geometry.hpp"
#include "lulesh/fields.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/simd.hpp"

namespace lulesh::kernels {

void calc_kinematics(domain& d, index_t lo, index_t hi, real_t dt) {
    hazard_touch(field::vnew, true, lo, hi);
    hazard_touch(field::delv, true, lo, hi);
    hazard_touch(field::volo, false, lo, hi);
    hazard_touch(field::v, false, lo, hi);
    hazard_touch(field::arealg, true, lo, hi);
    hazard_touch(field::dxx, true, lo, hi);
    hazard_touch(field::dyy, true, lo, hi);
    hazard_touch(field::dzz, true, lo, hi);
    hazard_covers(field::x);   // corner gather through nodelist (elem_nodes)
    hazard_covers(field::y);
    hazard_covers(field::z);
    hazard_covers(field::xd);
    hazard_covers(field::yd);
    hazard_covers(field::zd);
    const real_t dt2 = real_t(0.5) * dt;
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t k) {
        using T = decltype(lane);
        T B[3][8];
        T D[6];
        T x_local[8], y_local[8], z_local[8];
        T xd_local[8], yd_local[8], zd_local[8];

        const index_t* nl = d.nodelist(k);
        simd::gather_corners(&d.x[0], nl, x_local);
        simd::gather_corners(&d.y[0], nl, y_local);
        simd::gather_corners(&d.z[0], nl, z_local);

        const auto i = static_cast<std::size_t>(k);

        // New relative volume and volume change.
        const T volume = geom::calc_elem_volume(x_local, y_local, z_local);
        const T relative_volume = volume / simd::load<T>(&d.volo[i]);
        simd::store(&d.vnew[i], relative_volume);
        simd::store(&d.delv[i], relative_volume - simd::load<T>(&d.v[i]));

        simd::store(&d.arealg[i],
                    geom::calc_elem_characteristic_length(x_local, y_local,
                                                          z_local, volume));

        simd::gather_corners(&d.xd[0], nl, xd_local);
        simd::gather_corners(&d.yd[0], nl, yd_local);
        simd::gather_corners(&d.zd[0], nl, zd_local);

        // Evaluate the velocity gradient at the half step: move the corner
        // coordinates back by dt/2.
        for (int c = 0; c < 8; ++c) {
            x_local[c] -= dt2 * xd_local[c];
            y_local[c] -= dt2 * yd_local[c];
            z_local[c] -= dt2 * zd_local[c];
        }

        T det_j{};
        geom::calc_elem_shape_function_derivatives(x_local, y_local, z_local,
                                                   B, &det_j);
        geom::calc_elem_velocity_gradient(xd_local, yd_local, zd_local, B,
                                          det_j, D);

        simd::store(&d.dxx[i], D[0]);
        simd::store(&d.dyy[i], D[1]);
        simd::store(&d.dzz[i], D[2]);
    });
}

bool calc_lagrange_deviatoric(domain& d, index_t lo, index_t hi) {
    bool ok = true;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        const real_t vdov_k = d.dxx[i] + d.dyy[i] + d.dzz[i];
        const real_t vdov_third = vdov_k / real_t(3.0);

        d.vdov[i] = vdov_k;
        d.dxx[i] -= vdov_third;
        d.dyy[i] -= vdov_third;
        d.dzz[i] -= vdov_third;

        if (d.vnew[i] <= real_t(0.0)) ok = false;
    }
    return ok;
}

bool apply_material_vnewc(domain& d, index_t lo, index_t hi) {
    const real_t eosvmin = d.eosvmin;
    const real_t eosvmax = d.eosvmax;
    bool ok = true;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        real_t vc_new = d.vnew[i];
        if (eosvmin != real_t(0.0) && vc_new < eosvmin) vc_new = eosvmin;
        if (eosvmax != real_t(0.0) && vc_new > eosvmax) vc_new = eosvmax;
        d.vnewc[i] = vc_new;

        // Sanity check on the *current* relative volume (reference abort).
        real_t vc = d.v[i];
        if (eosvmin != real_t(0.0) && vc < eosvmin) vc = eosvmin;
        if (eosvmax != real_t(0.0) && vc > eosvmax) vc = eosvmax;
        if (vc <= real_t(0.0)) ok = false;
    }
    return ok;
}

void update_volumes(domain& d, index_t lo, index_t hi) {
    hazard_touch(field::vnew, false, lo, hi);
    hazard_touch(field::v, true, lo, hi);
    const real_t v_cut = d.v_cut;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        real_t tmp_v = d.vnew[i];
        if (std::fabs(tmp_v - real_t(1.0)) < v_cut) tmp_v = real_t(1.0);
        d.v[i] = tmp_v;
    }
}

}  // namespace lulesh::kernels
