// lulesh/kernels_q.cpp — artificial viscosity: monotonic Q gradients and the
// per-region monotonic Q evaluation.

#include <cstddef>

#include "lulesh/fields.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/simd.hpp"

namespace lulesh::kernels {

void calc_monotonic_q_gradients(domain& d, index_t lo, index_t hi) {
    hazard_touch(field::volo, false, lo, hi);
    hazard_touch(field::vnew, false, lo, hi);
    hazard_touch(field::delx_xi, true, lo, hi);
    hazard_touch(field::delx_eta, true, lo, hi);
    hazard_touch(field::delx_zeta, true, lo, hi);
    hazard_touch(field::delv_xi, true, lo, hi);
    hazard_touch(field::delv_eta, true, lo, hi);
    hazard_touch(field::delv_zeta, true, lo, hi);
    hazard_covers(field::x);   // corner gather through nodelist (elem_nodes)
    hazard_covers(field::y);
    hazard_covers(field::z);
    hazard_covers(field::xd);
    hazard_covers(field::yd);
    hazard_covers(field::zd);
    constexpr real_t ptiny = real_t(1.e-36);

    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        T x[8], y[8], z[8], xv[8], yv[8], zv[8];
        const index_t* nl = d.nodelist(i);
        simd::gather_corners(&d.x[0], nl, x);
        simd::gather_corners(&d.y[0], nl, y);
        simd::gather_corners(&d.z[0], nl, z);
        simd::gather_corners(&d.xd[0], nl, xv);
        simd::gather_corners(&d.yd[0], nl, yv);
        simd::gather_corners(&d.zd[0], nl, zv);

        const T x0 = x[0], x1 = x[1], x2 = x[2], x3 = x[3];
        const T x4 = x[4], x5 = x[5], x6 = x[6], x7 = x[7];
        const T y0 = y[0], y1 = y[1], y2 = y[2], y3 = y[3];
        const T y4 = y[4], y5 = y[5], y6 = y[6], y7 = y[7];
        const T z0 = z[0], z1 = z[1], z2 = z[2], z3 = z[3];
        const T z4 = z[4], z5 = z[5], z6 = z[6], z7 = z[7];

        const T xv0 = xv[0], xv1 = xv[1], xv2 = xv[2], xv3 = xv[3];
        const T xv4 = xv[4], xv5 = xv[5], xv6 = xv[6], xv7 = xv[7];
        const T yv0 = yv[0], yv1 = yv[1], yv2 = yv[2], yv3 = yv[3];
        const T yv4 = yv[4], yv5 = yv[5], yv6 = yv[6], yv7 = yv[7];
        const T zv0 = zv[0], zv1 = zv[1], zv2 = zv[2], zv3 = zv[3];
        const T zv4 = zv[4], zv5 = zv[5], zv6 = zv[6], zv7 = zv[7];

        const auto k = static_cast<std::size_t>(i);
        const T vol = simd::load<T>(&d.volo[k]) * simd::load<T>(&d.vnew[k]);
        const T norm = real_t(1.0) / (vol + ptiny);

        const T dxj = real_t(-0.25) * ((x0 + x1 + x5 + x4) - (x3 + x2 + x6 + x7));
        const T dyj = real_t(-0.25) * ((y0 + y1 + y5 + y4) - (y3 + y2 + y6 + y7));
        const T dzj = real_t(-0.25) * ((z0 + z1 + z5 + z4) - (z3 + z2 + z6 + z7));

        const T dxi = real_t(0.25) * ((x1 + x2 + x6 + x5) - (x0 + x3 + x7 + x4));
        const T dyi = real_t(0.25) * ((y1 + y2 + y6 + y5) - (y0 + y3 + y7 + y4));
        const T dzi = real_t(0.25) * ((z1 + z2 + z6 + z5) - (z0 + z3 + z7 + z4));

        const T dxk = real_t(0.25) * ((x4 + x5 + x6 + x7) - (x0 + x1 + x2 + x3));
        const T dyk = real_t(0.25) * ((y4 + y5 + y6 + y7) - (y0 + y1 + y2 + y3));
        const T dzk = real_t(0.25) * ((z4 + z5 + z6 + z7) - (z0 + z1 + z2 + z3));

        // zeta direction: i cross j
        {
            T ax = dyi * dzj - dzi * dyj;
            T ay = dzi * dxj - dxi * dzj;
            T az = dxi * dyj - dyi * dxj;

            simd::store(&d.delx_zeta[k],
                        vol / simd::sqrt(ax * ax + ay * ay + az * az + ptiny));

            ax *= norm;
            ay *= norm;
            az *= norm;

            const T dxv = real_t(0.25) * ((xv4 + xv5 + xv6 + xv7) - (xv0 + xv1 + xv2 + xv3));
            const T dyv = real_t(0.25) * ((yv4 + yv5 + yv6 + yv7) - (yv0 + yv1 + yv2 + yv3));
            const T dzv = real_t(0.25) * ((zv4 + zv5 + zv6 + zv7) - (zv0 + zv1 + zv2 + zv3));

            simd::store(&d.delv_zeta[k], ax * dxv + ay * dyv + az * dzv);
        }

        // xi direction: j cross k
        {
            T ax = dyj * dzk - dzj * dyk;
            T ay = dzj * dxk - dxj * dzk;
            T az = dxj * dyk - dyj * dxk;

            simd::store(&d.delx_xi[k],
                        vol / simd::sqrt(ax * ax + ay * ay + az * az + ptiny));

            ax *= norm;
            ay *= norm;
            az *= norm;

            const T dxv = real_t(0.25) * ((xv1 + xv2 + xv6 + xv5) - (xv0 + xv3 + xv7 + xv4));
            const T dyv = real_t(0.25) * ((yv1 + yv2 + yv6 + yv5) - (yv0 + yv3 + yv7 + yv4));
            const T dzv = real_t(0.25) * ((zv1 + zv2 + zv6 + zv5) - (zv0 + zv3 + zv7 + zv4));

            simd::store(&d.delv_xi[k], ax * dxv + ay * dyv + az * dzv);
        }

        // eta direction: k cross i
        {
            T ax = dyk * dzi - dzk * dyi;
            T ay = dzk * dxi - dxk * dzi;
            T az = dxk * dyi - dyk * dxi;

            simd::store(&d.delx_eta[k],
                        vol / simd::sqrt(ax * ax + ay * ay + az * az + ptiny));

            ax *= norm;
            ay *= norm;
            az *= norm;

            const T dxv = real_t(-0.25) * ((xv0 + xv1 + xv5 + xv4) - (xv3 + xv2 + xv6 + xv7));
            const T dyv = real_t(-0.25) * ((yv0 + yv1 + yv5 + yv4) - (yv3 + yv2 + yv6 + yv7));
            const T dzv = real_t(-0.25) * ((zv0 + zv1 + zv5 + zv4) - (zv3 + zv2 + zv6 + zv7));

            simd::store(&d.delv_eta[k], ax * dxv + ay * dyv + az * dzv);
        }
    });
}

void calc_monotonic_q_region(domain& d, const index_t* reg_elem_list,
                             index_t lo, index_t hi) {
    constexpr real_t ptiny = real_t(1.e-36);
    const real_t monoq_limiter_mult = d.monoq_limiter_mult;
    const real_t monoq_max_slope = d.monoq_max_slope;
    const real_t qlc_monoq = d.qlc_monoq;
    const real_t qqc_monoq = d.qqc_monoq;

    for (index_t idx = lo; idx < hi; ++idx) {
        const index_t i = reg_elem_list[idx];
        const auto k = static_cast<std::size_t>(i);
        const int bc_mask = d.elemBC[k];
        real_t delvm = 0, delvp = 0;

        // phixi
        real_t norm = real_t(1.0) / (d.delv_xi[k] + ptiny);
        switch (bc_mask & XI_M) {
            case XI_M_SYMM:
                delvm = d.delv_xi[k];
                break;
            case XI_M_FREE:
                delvm = real_t(0.0);
                break;
            default:
                delvm = d.delv_xi[static_cast<std::size_t>(d.lxim[k])];
                break;
        }
        switch (bc_mask & XI_P) {
            case XI_P_SYMM:
                delvp = d.delv_xi[k];
                break;
            case XI_P_FREE:
                delvp = real_t(0.0);
                break;
            default:
                delvp = d.delv_xi[static_cast<std::size_t>(d.lxip[k])];
                break;
        }

        delvm = delvm * norm;
        delvp = delvp * norm;

        real_t phixi = real_t(0.5) * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if (delvm < phixi) phixi = delvm;
        if (delvp < phixi) phixi = delvp;
        if (phixi < real_t(0.0)) phixi = real_t(0.0);
        if (phixi > monoq_max_slope) phixi = monoq_max_slope;

        // phieta
        norm = real_t(1.0) / (d.delv_eta[k] + ptiny);
        switch (bc_mask & ETA_M) {
            case ETA_M_SYMM:
                delvm = d.delv_eta[k];
                break;
            case ETA_M_FREE:
                delvm = real_t(0.0);
                break;
            default:
                delvm = d.delv_eta[static_cast<std::size_t>(d.letam[k])];
                break;
        }
        switch (bc_mask & ETA_P) {
            case ETA_P_SYMM:
                delvp = d.delv_eta[k];
                break;
            case ETA_P_FREE:
                delvp = real_t(0.0);
                break;
            default:
                delvp = d.delv_eta[static_cast<std::size_t>(d.letap[k])];
                break;
        }

        delvm = delvm * norm;
        delvp = delvp * norm;

        real_t phieta = real_t(0.5) * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if (delvm < phieta) phieta = delvm;
        if (delvp < phieta) phieta = delvp;
        if (phieta < real_t(0.0)) phieta = real_t(0.0);
        if (phieta > monoq_max_slope) phieta = monoq_max_slope;

        // phizeta
        norm = real_t(1.0) / (d.delv_zeta[k] + ptiny);
        switch (bc_mask & ZETA_M) {
            case ZETA_M_SYMM:
                delvm = d.delv_zeta[k];
                break;
            case ZETA_M_FREE:
                delvm = real_t(0.0);
                break;
            default:
                delvm = d.delv_zeta[static_cast<std::size_t>(d.lzetam[k])];
                break;
        }
        switch (bc_mask & ZETA_P) {
            case ZETA_P_SYMM:
                delvp = d.delv_zeta[k];
                break;
            case ZETA_P_FREE:
                delvp = real_t(0.0);
                break;
            default:
                delvp = d.delv_zeta[static_cast<std::size_t>(d.lzetap[k])];
                break;
        }

        delvm = delvm * norm;
        delvp = delvp * norm;

        real_t phizeta = real_t(0.5) * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if (delvm < phizeta) phizeta = delvm;
        if (delvp < phizeta) phizeta = delvp;
        if (phizeta < real_t(0.0)) phizeta = real_t(0.0);
        if (phizeta > monoq_max_slope) phizeta = monoq_max_slope;

        // Remove length scale.
        real_t qlin, qquad;
        if (d.vdov[k] > real_t(0.0)) {
            qlin = real_t(0.0);
            qquad = real_t(0.0);
        } else {
            real_t delvxxi = d.delv_xi[k] * d.delx_xi[k];
            real_t delvxeta = d.delv_eta[k] * d.delx_eta[k];
            real_t delvxzeta = d.delv_zeta[k] * d.delx_zeta[k];

            if (delvxxi > real_t(0.0)) delvxxi = real_t(0.0);
            if (delvxeta > real_t(0.0)) delvxeta = real_t(0.0);
            if (delvxzeta > real_t(0.0)) delvxzeta = real_t(0.0);

            const real_t rho = d.elemMass[k] / (d.volo[k] * d.vnew[k]);

            qlin = -qlc_monoq * rho *
                   (delvxxi * (real_t(1.0) - phixi) +
                    delvxeta * (real_t(1.0) - phieta) +
                    delvxzeta * (real_t(1.0) - phizeta));

            qquad = qqc_monoq * rho *
                    (delvxxi * delvxxi * (real_t(1.0) - phixi * phixi) +
                     delvxeta * delvxeta * (real_t(1.0) - phieta * phieta) +
                     delvxzeta * delvxzeta * (real_t(1.0) - phizeta * phizeta));
        }

        d.qq[k] = qquad;
        d.ql[k] = qlin;
    }
}

bool check_qstop(const domain& d, index_t lo, index_t hi) {
    const real_t qstop = d.qstop;
    for (index_t i = lo; i < hi; ++i) {
        if (d.q[static_cast<std::size_t>(i)] > qstop) return false;
    }
    return true;
}

}  // namespace lulesh::kernels
