// lulesh/elem_geometry.hpp
//
// Per-hexahedron geometry and mechanics helpers: volume, shape-function
// derivatives, face normals, volume derivatives, hourglass forces,
// characteristic length, and the velocity gradient.  These follow the
// formulas of the reference implementation (and LLNL-TR-490254) exactly —
// including evaluation order, so that results are bitwise comparable to a
// faithful port.  All functions are small, pure, and inline; they operate on
// the eight corner values of a single element.
//
// Each helper is a template on its value type T: real_t evaluates one
// element, simd::vec one element per lane (simd.hpp).  Both run the same
// expression tree, so each lane is bitwise the real_t result.

#pragma once

#include "lulesh/simd.hpp"
#include "lulesh/types.hpp"

namespace lulesh::geom {

/// Triple product |a · (b × c)| building block of the hex volume formula.
template <class T>
inline T triple_product(T x1, T y1, T z1, T x2, T y2, T z2, T x3, T y3,
                        T z3) {
    return x1 * (y2 * z3 - z2 * y3) + x2 * (z1 * y3 - y1 * z3) +
           x3 * (y1 * z2 - z1 * y2);
}

/// Volume of a hexahedron given its eight corner coordinates in the
/// reference node ordering.  Exact for tri-linear hexes.
template <class T>
inline T calc_elem_volume(const T x[8], const T y[8], const T z[8]) {
    const real_t twelveth = real_t(1.0) / real_t(12.0);

    const T dx61 = x[6] - x[1], dy61 = y[6] - y[1], dz61 = z[6] - z[1];
    const T dx70 = x[7] - x[0], dy70 = y[7] - y[0], dz70 = z[7] - z[0];
    const T dx63 = x[6] - x[3], dy63 = y[6] - y[3], dz63 = z[6] - z[3];
    const T dx20 = x[2] - x[0], dy20 = y[2] - y[0], dz20 = z[2] - z[0];
    const T dx50 = x[5] - x[0], dy50 = y[5] - y[0], dz50 = z[5] - z[0];
    const T dx64 = x[6] - x[4], dy64 = y[6] - y[4], dz64 = z[6] - z[4];
    const T dx31 = x[3] - x[1], dy31 = y[3] - y[1], dz31 = z[3] - z[1];
    const T dx72 = x[7] - x[2], dy72 = y[7] - y[2], dz72 = z[7] - z[2];
    const T dx43 = x[4] - x[3], dy43 = y[4] - y[3], dz43 = z[4] - z[3];
    const T dx57 = x[5] - x[7], dy57 = y[5] - y[7], dz57 = z[5] - z[7];
    const T dx14 = x[1] - x[4], dy14 = y[1] - y[4], dz14 = z[1] - z[4];
    const T dx25 = x[2] - x[5], dy25 = y[2] - y[5], dz25 = z[2] - z[5];

    T volume =
        triple_product(dx31 + dx72, dx63, dx20, dy31 + dy72, dy63, dy20,
                       dz31 + dz72, dz63, dz20) +
        triple_product(dx43 + dx57, dx64, dx70, dy43 + dy57, dy64, dy70,
                       dz43 + dz57, dz64, dz70) +
        triple_product(dx14 + dx25, dx61, dx50, dy14 + dy25, dy61, dy50,
                       dz14 + dz25, dz61, dz50);
    return volume * twelveth;
}

/// Shape-function derivative matrix b[3][8] and Jacobian determinant
/// (times 8) of a hexahedron.
template <class T>
inline void calc_elem_shape_function_derivatives(const T x[8], const T y[8],
                                                 const T z[8], T b[3][8],
                                                 T* volume) {
    const T fjxxi = real_t(.125) * ((x[6] - x[0]) + (x[5] - x[3]) -
                                    (x[7] - x[1]) - (x[4] - x[2]));
    const T fjxet = real_t(.125) * ((x[6] - x[0]) - (x[5] - x[3]) +
                                    (x[7] - x[1]) - (x[4] - x[2]));
    const T fjxze = real_t(.125) * ((x[6] - x[0]) + (x[5] - x[3]) +
                                    (x[7] - x[1]) + (x[4] - x[2]));

    const T fjyxi = real_t(.125) * ((y[6] - y[0]) + (y[5] - y[3]) -
                                    (y[7] - y[1]) - (y[4] - y[2]));
    const T fjyet = real_t(.125) * ((y[6] - y[0]) - (y[5] - y[3]) +
                                    (y[7] - y[1]) - (y[4] - y[2]));
    const T fjyze = real_t(.125) * ((y[6] - y[0]) + (y[5] - y[3]) +
                                    (y[7] - y[1]) + (y[4] - y[2]));

    const T fjzxi = real_t(.125) * ((z[6] - z[0]) + (z[5] - z[3]) -
                                    (z[7] - z[1]) - (z[4] - z[2]));
    const T fjzet = real_t(.125) * ((z[6] - z[0]) - (z[5] - z[3]) +
                                    (z[7] - z[1]) - (z[4] - z[2]));
    const T fjzze = real_t(.125) * ((z[6] - z[0]) + (z[5] - z[3]) +
                                    (z[7] - z[1]) + (z[4] - z[2]));

    // Cofactors of the Jacobian.
    const T cjxxi = (fjyet * fjzze) - (fjzet * fjyze);
    const T cjxet = -(fjyxi * fjzze) + (fjzxi * fjyze);
    const T cjxze = (fjyxi * fjzet) - (fjzxi * fjyet);

    const T cjyxi = -(fjxet * fjzze) + (fjzet * fjxze);
    const T cjyet = (fjxxi * fjzze) - (fjzxi * fjxze);
    const T cjyze = -(fjxxi * fjzet) + (fjzxi * fjxet);

    const T cjzxi = (fjxet * fjyze) - (fjyet * fjxze);
    const T cjzet = -(fjxxi * fjyze) + (fjyxi * fjxze);
    const T cjzze = (fjxxi * fjyet) - (fjyxi * fjxet);

    // Partial derivatives of the shape functions at the element center; only
    // four are independent, the rest follow by symmetry.
    b[0][0] = -cjxxi - cjxet - cjxze;
    b[0][1] = cjxxi - cjxet - cjxze;
    b[0][2] = cjxxi + cjxet - cjxze;
    b[0][3] = -cjxxi + cjxet - cjxze;
    b[0][4] = -b[0][2];
    b[0][5] = -b[0][3];
    b[0][6] = -b[0][0];
    b[0][7] = -b[0][1];

    b[1][0] = -cjyxi - cjyet - cjyze;
    b[1][1] = cjyxi - cjyet - cjyze;
    b[1][2] = cjyxi + cjyet - cjyze;
    b[1][3] = -cjyxi + cjyet - cjyze;
    b[1][4] = -b[1][2];
    b[1][5] = -b[1][3];
    b[1][6] = -b[1][0];
    b[1][7] = -b[1][1];

    b[2][0] = -cjzxi - cjzet - cjzze;
    b[2][1] = cjzxi - cjzet - cjzze;
    b[2][2] = cjzxi + cjzet - cjzze;
    b[2][3] = -cjzxi + cjzet - cjzze;
    b[2][4] = -b[2][2];
    b[2][5] = -b[2][3];
    b[2][6] = -b[2][0];
    b[2][7] = -b[2][1];

    *volume = real_t(8.0) * (fjxet * cjxet + fjyet * cjyet + fjzet * cjzet);
}

/// Adds one quad face's area normal, split evenly over its four corners.
template <class T>
inline void sum_elem_face_normal(T* normalX0, T* normalY0, T* normalZ0,
                                 T* normalX1, T* normalY1, T* normalZ1,
                                 T* normalX2, T* normalY2, T* normalZ2,
                                 T* normalX3, T* normalY3, T* normalZ3, T x0,
                                 T y0, T z0, T x1, T y1, T z1, T x2, T y2,
                                 T z2, T x3, T y3, T z3) {
    const T bisectX0 = real_t(0.5) * (x3 + x2 - x1 - x0);
    const T bisectY0 = real_t(0.5) * (y3 + y2 - y1 - y0);
    const T bisectZ0 = real_t(0.5) * (z3 + z2 - z1 - z0);
    const T bisectX1 = real_t(0.5) * (x2 + x1 - x3 - x0);
    const T bisectY1 = real_t(0.5) * (y2 + y1 - y3 - y0);
    const T bisectZ1 = real_t(0.5) * (z2 + z1 - z3 - z0);
    const T areaX =
        real_t(0.25) * (bisectY0 * bisectZ1 - bisectZ0 * bisectY1);
    const T areaY =
        real_t(0.25) * (bisectZ0 * bisectX1 - bisectX0 * bisectZ1);
    const T areaZ =
        real_t(0.25) * (bisectX0 * bisectY1 - bisectY0 * bisectX1);

    *normalX0 += areaX;
    *normalX1 += areaX;
    *normalX2 += areaX;
    *normalX3 += areaX;
    *normalY0 += areaY;
    *normalY1 += areaY;
    *normalY2 += areaY;
    *normalY3 += areaY;
    *normalZ0 += areaZ;
    *normalZ1 += areaZ;
    *normalZ2 += areaZ;
    *normalZ3 += areaZ;
}

/// Area-weighted node normals of a hexahedron (the B-matrix used by the
/// stress integration).  pfx/pfy/pfz must be zero-initialized by the caller.
template <class T>
inline void calc_elem_node_normals(T pfx[8], T pfy[8], T pfz[8],
                                   const T x[8], const T y[8], const T z[8]) {
    for (int i = 0; i < 8; ++i) {
        pfx[i] = T{};
        pfy[i] = T{};
        pfz[i] = T{};
    }
    // Face 0-1-2-3
    sum_elem_face_normal(&pfx[0], &pfy[0], &pfz[0], &pfx[1], &pfy[1], &pfz[1],
                         &pfx[2], &pfy[2], &pfz[2], &pfx[3], &pfy[3], &pfz[3],
                         x[0], y[0], z[0], x[1], y[1], z[1], x[2], y[2], z[2],
                         x[3], y[3], z[3]);
    // Face 0-4-5-1
    sum_elem_face_normal(&pfx[0], &pfy[0], &pfz[0], &pfx[4], &pfy[4], &pfz[4],
                         &pfx[5], &pfy[5], &pfz[5], &pfx[1], &pfy[1], &pfz[1],
                         x[0], y[0], z[0], x[4], y[4], z[4], x[5], y[5], z[5],
                         x[1], y[1], z[1]);
    // Face 1-5-6-2
    sum_elem_face_normal(&pfx[1], &pfy[1], &pfz[1], &pfx[5], &pfy[5], &pfz[5],
                         &pfx[6], &pfy[6], &pfz[6], &pfx[2], &pfy[2], &pfz[2],
                         x[1], y[1], z[1], x[5], y[5], z[5], x[6], y[6], z[6],
                         x[2], y[2], z[2]);
    // Face 2-6-7-3
    sum_elem_face_normal(&pfx[2], &pfy[2], &pfz[2], &pfx[6], &pfy[6], &pfz[6],
                         &pfx[7], &pfy[7], &pfz[7], &pfx[3], &pfy[3], &pfz[3],
                         x[2], y[2], z[2], x[6], y[6], z[6], x[7], y[7], z[7],
                         x[3], y[3], z[3]);
    // Face 3-7-4-0
    sum_elem_face_normal(&pfx[3], &pfy[3], &pfz[3], &pfx[7], &pfy[7], &pfz[7],
                         &pfx[4], &pfy[4], &pfz[4], &pfx[0], &pfy[0], &pfz[0],
                         x[3], y[3], z[3], x[7], y[7], z[7], x[4], y[4], z[4],
                         x[0], y[0], z[0]);
    // Face 4-7-6-5
    sum_elem_face_normal(&pfx[4], &pfy[4], &pfz[4], &pfx[7], &pfy[7], &pfz[7],
                         &pfx[6], &pfy[6], &pfz[6], &pfx[5], &pfy[5], &pfz[5],
                         x[4], y[4], z[4], x[7], y[7], z[7], x[6], y[6], z[6],
                         x[5], y[5], z[5]);
}

/// Stress → corner forces: f = -sigma * node_normal per corner.
template <class T>
inline void sum_elem_stresses_to_node_forces(const T B[3][8], T stress_xx,
                                             T stress_yy, T stress_zz,
                                             T fx[8], T fy[8], T fz[8]) {
    for (int i = 0; i < 8; ++i) {
        fx[i] = -(stress_xx * B[0][i]);
        fy[i] = -(stress_yy * B[1][i]);
        fz[i] = -(stress_zz * B[2][i]);
    }
}

/// One corner's volume derivative (reference VoluDer).
template <class T>
inline void volu_der(T x0, T x1, T x2, T x3, T x4, T x5, T y0, T y1, T y2,
                     T y3, T y4, T y5, T z0, T z1, T z2, T z3, T z4, T z5,
                     T* dvdx, T* dvdy, T* dvdz) {
    const real_t twelfth = real_t(1.0) / real_t(12.0);

    *dvdx = (y1 + y2) * (z0 + z1) - (y0 + y1) * (z1 + z2) +
            (y0 + y4) * (z3 + z4) - (y3 + y4) * (z0 + z4) -
            (y2 + y5) * (z3 + z5) + (y3 + y5) * (z2 + z5);
    *dvdy = -(x1 + x2) * (z0 + z1) + (x0 + x1) * (z1 + z2) -
            (x0 + x4) * (z3 + z4) + (x3 + x4) * (z0 + z4) +
            (x2 + x5) * (z3 + z5) - (x3 + x5) * (z2 + z5);
    *dvdz = -(y1 + y2) * (x0 + x1) + (y0 + y1) * (x1 + x2) -
            (y0 + y4) * (x3 + x4) + (y3 + y4) * (x0 + x4) +
            (y2 + y5) * (x3 + x5) - (y3 + y5) * (x2 + x5);

    *dvdx *= twelfth;
    *dvdy *= twelfth;
    *dvdz *= twelfth;
}

/// Volume derivatives with respect to each corner's coordinates.
template <class T>
inline void calc_elem_volume_derivative(T dvdx[8], T dvdy[8], T dvdz[8],
                                        const T x[8], const T y[8],
                                        const T z[8]) {
    volu_der(x[1], x[2], x[3], x[4], x[5], x[7], y[1], y[2], y[3], y[4], y[5],
             y[7], z[1], z[2], z[3], z[4], z[5], z[7], &dvdx[0], &dvdy[0],
             &dvdz[0]);
    volu_der(x[0], x[1], x[2], x[7], x[4], x[6], y[0], y[1], y[2], y[7], y[4],
             y[6], z[0], z[1], z[2], z[7], z[4], z[6], &dvdx[3], &dvdy[3],
             &dvdz[3]);
    volu_der(x[3], x[0], x[1], x[6], x[7], x[5], y[3], y[0], y[1], y[6], y[7],
             y[5], z[3], z[0], z[1], z[6], z[7], z[5], &dvdx[2], &dvdy[2],
             &dvdz[2]);
    volu_der(x[2], x[3], x[0], x[5], x[6], x[4], y[2], y[3], y[0], y[5], y[6],
             y[4], z[2], z[3], z[0], z[5], z[6], z[4], &dvdx[1], &dvdy[1],
             &dvdz[1]);
    volu_der(x[7], x[6], x[5], x[0], x[3], x[1], y[7], y[6], y[5], y[0], y[3],
             y[1], z[7], z[6], z[5], z[0], z[3], z[1], &dvdx[4], &dvdy[4],
             &dvdz[4]);
    volu_der(x[4], x[7], x[6], x[1], x[0], x[2], y[4], y[7], y[6], y[1], y[0],
             y[2], z[4], z[7], z[6], z[1], z[0], z[2], &dvdx[5], &dvdy[5],
             &dvdz[5]);
    volu_der(x[5], x[4], x[7], x[2], x[1], x[3], y[5], y[4], y[7], y[2], y[1],
             y[3], z[5], z[4], z[7], z[2], z[1], z[3], &dvdx[6], &dvdy[6],
             &dvdz[6]);
    volu_der(x[6], x[5], x[4], x[3], x[2], x[0], y[6], y[5], y[4], y[3], y[2],
             y[0], z[6], z[5], z[4], z[3], z[2], z[0], &dvdx[7], &dvdy[7],
             &dvdz[7]);
}

/// Hourglass base vectors of the Flanagan-Belytschko kinematic filter.
inline constexpr real_t hourglass_gamma[4][8] = {
    {1., 1., -1., -1., -1., -1., 1., 1.},
    {1., -1., -1., 1., -1., 1., 1., -1.},
    {1., -1., 1., -1., 1., -1., 1., -1.},
    {-1., 1., -1., 1., 1., -1., 1., -1.}};

/// Hourglass force of one element from its hourglass shape vectors
/// (hourgam), nodal velocities, and the damping coefficient.
template <class T>
inline void calc_elem_fb_hourglass_force(const T* xd, const T* yd,
                                         const T* zd, const T hourgam[8][4],
                                         T coefficient, T* hgfx, T* hgfy,
                                         T* hgfz) {
    T hxx[4];
    for (int i = 0; i < 4; ++i) {
        hxx[i] = hourgam[0][i] * xd[0] + hourgam[1][i] * xd[1] +
                 hourgam[2][i] * xd[2] + hourgam[3][i] * xd[3] +
                 hourgam[4][i] * xd[4] + hourgam[5][i] * xd[5] +
                 hourgam[6][i] * xd[6] + hourgam[7][i] * xd[7];
    }
    for (int i = 0; i < 8; ++i) {
        hgfx[i] = coefficient * (hourgam[i][0] * hxx[0] + hourgam[i][1] * hxx[1] +
                                 hourgam[i][2] * hxx[2] + hourgam[i][3] * hxx[3]);
    }
    for (int i = 0; i < 4; ++i) {
        hxx[i] = hourgam[0][i] * yd[0] + hourgam[1][i] * yd[1] +
                 hourgam[2][i] * yd[2] + hourgam[3][i] * yd[3] +
                 hourgam[4][i] * yd[4] + hourgam[5][i] * yd[5] +
                 hourgam[6][i] * yd[6] + hourgam[7][i] * yd[7];
    }
    for (int i = 0; i < 8; ++i) {
        hgfy[i] = coefficient * (hourgam[i][0] * hxx[0] + hourgam[i][1] * hxx[1] +
                                 hourgam[i][2] * hxx[2] + hourgam[i][3] * hxx[3]);
    }
    for (int i = 0; i < 4; ++i) {
        hxx[i] = hourgam[0][i] * zd[0] + hourgam[1][i] * zd[1] +
                 hourgam[2][i] * zd[2] + hourgam[3][i] * zd[3] +
                 hourgam[4][i] * zd[4] + hourgam[5][i] * zd[5] +
                 hourgam[6][i] * zd[6] + hourgam[7][i] * zd[7];
    }
    for (int i = 0; i < 8; ++i) {
        hgfz[i] = coefficient * (hourgam[i][0] * hxx[0] + hourgam[i][1] * hxx[1] +
                                 hourgam[i][2] * hxx[2] + hourgam[i][3] * hxx[3]);
    }
}

/// Squared area of the quad face (x0..x3, ...) — helper for the
/// characteristic length.
template <class T>
inline T area_face(T x0, T x1, T x2, T x3, T y0, T y1, T y2, T y3, T z0,
                   T z1, T z2, T z3) {
    const T fx = (x2 - x0) - (x3 - x1);
    const T fy = (y2 - y0) - (y3 - y1);
    const T fz = (z2 - z0) - (z3 - z1);
    const T gx = (x2 - x0) + (x3 - x1);
    const T gy = (y2 - y0) + (y3 - y1);
    const T gz = (z2 - z0) + (z3 - z1);
    return (fx * fx + fy * fy + fz * fz) * (gx * gx + gy * gy + gz * gz) -
           (fx * gx + fy * gy + fz * gz) * (fx * gx + fy * gy + fz * gz);
}

/// Characteristic length: 4 * volume / sqrt(largest face area).  The
/// running maximum keeps the reference's `if (a > char_length)` update as a
/// select, so a NaN area is skipped in every lane as in the scalar form.
template <class T>
inline T calc_elem_characteristic_length(const T x[8], const T y[8],
                                         const T z[8], T volume) {
    T char_length{};

    T a = area_face(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3], z[0],
                         z[1], z[2], z[3]);
    char_length = a > char_length ? a : char_length;

    a = area_face(x[4], x[5], x[6], x[7], y[4], y[5], y[6], y[7], z[4], z[5],
                  z[6], z[7]);
    char_length = a > char_length ? a : char_length;

    a = area_face(x[0], x[1], x[5], x[4], y[0], y[1], y[5], y[4], z[0], z[1],
                  z[5], z[4]);
    char_length = a > char_length ? a : char_length;

    a = area_face(x[1], x[2], x[6], x[5], y[1], y[2], y[6], y[5], z[1], z[2],
                  z[6], z[5]);
    char_length = a > char_length ? a : char_length;

    a = area_face(x[2], x[3], x[7], x[6], y[2], y[3], y[7], y[6], z[2], z[3],
                  z[7], z[6]);
    char_length = a > char_length ? a : char_length;

    a = area_face(x[3], x[0], x[4], x[7], y[3], y[0], y[4], y[7], z[3], z[0],
                  z[4], z[7]);
    char_length = a > char_length ? a : char_length;

    char_length = real_t(4.0) * volume / simd::sqrt(char_length);
    return char_length;
}

/// Velocity gradient (principal strain-rate components) of one element.
/// All six components are computed as in the reference even though only the
/// diagonal is consumed, to preserve the computational structure.
template <class T>
inline void calc_elem_velocity_gradient(const T* xvel, const T* yvel,
                                        const T* zvel, const T b[3][8],
                                        T detJ, T* d /* [6] */) {
    const T inv_detJ = real_t(1.0) / detJ;
    const T* pfx = b[0];
    const T* pfy = b[1];
    const T* pfz = b[2];

    d[0] = inv_detJ * (pfx[0] * (xvel[0] - xvel[6]) + pfx[1] * (xvel[1] - xvel[7]) +
                       pfx[2] * (xvel[2] - xvel[4]) + pfx[3] * (xvel[3] - xvel[5]));
    d[1] = inv_detJ * (pfy[0] * (yvel[0] - yvel[6]) + pfy[1] * (yvel[1] - yvel[7]) +
                       pfy[2] * (yvel[2] - yvel[4]) + pfy[3] * (yvel[3] - yvel[5]));
    d[2] = inv_detJ * (pfz[0] * (zvel[0] - zvel[6]) + pfz[1] * (zvel[1] - zvel[7]) +
                       pfz[2] * (zvel[2] - zvel[4]) + pfz[3] * (zvel[3] - zvel[5]));

    const T dyddx =
        inv_detJ * (pfx[0] * (yvel[0] - yvel[6]) + pfx[1] * (yvel[1] - yvel[7]) +
                    pfx[2] * (yvel[2] - yvel[4]) + pfx[3] * (yvel[3] - yvel[5]));
    const T dxddy =
        inv_detJ * (pfy[0] * (xvel[0] - xvel[6]) + pfy[1] * (xvel[1] - xvel[7]) +
                    pfy[2] * (xvel[2] - xvel[4]) + pfy[3] * (xvel[3] - xvel[5]));
    const T dzddx =
        inv_detJ * (pfx[0] * (zvel[0] - zvel[6]) + pfx[1] * (zvel[1] - zvel[7]) +
                    pfx[2] * (zvel[2] - zvel[4]) + pfx[3] * (zvel[3] - zvel[5]));
    const T dxddz =
        inv_detJ * (pfz[0] * (xvel[0] - xvel[6]) + pfz[1] * (xvel[1] - xvel[7]) +
                    pfz[2] * (xvel[2] - xvel[4]) + pfz[3] * (xvel[3] - xvel[5]));
    const T dzddy =
        inv_detJ * (pfy[0] * (zvel[0] - zvel[6]) + pfy[1] * (zvel[1] - zvel[7]) +
                    pfy[2] * (zvel[2] - zvel[4]) + pfy[3] * (zvel[3] - zvel[5]));
    const T dyddz =
        inv_detJ * (pfz[0] * (yvel[0] - yvel[6]) + pfz[1] * (yvel[1] - yvel[7]) +
                    pfz[2] * (yvel[2] - yvel[4]) + pfz[3] * (yvel[3] - yvel[5]));

    d[5] = real_t(.5) * (dxddy + dyddx);
    d[4] = real_t(.5) * (dxddz + dzddx);
    d[3] = real_t(.5) * (dzddy + dyddz);
}

}  // namespace lulesh::geom
