// lulesh/simd.hpp
//
// SIMD lanes across elements for the per-element kernels.  A block of
// consecutive elements k .. k + lanes<T> - 1 is evaluated with one value of
// type T per quantity, lane l holding element k + l.  Every lane runs the
// scalar code's expression tree unchanged (the helpers of elem_geometry.hpp
// are templates on their value type), and the build passes
// -ffp-contract=off, so no multiply-add is fused in either form: each lane
// is bitwise the scalar result.  sqrt is correctly rounded in both forms;
// libm has no vector cbrt, so cbrt runs per lane.
//
// The width follows the target ISA at compile time: 8 doubles with
// AVX-512F, 4 with AVX, otherwise 1, where `vec` is real_t itself and every
// kernel runs its scalar instantiation.  A kernel runs its whole blocks as
// `vec` and the rest of its range one element at a time as real_t
// (for_blocks); the real_t instantiation is also the oracle the lane tests
// compare against.

#pragma once

#include <cmath>
#include <cstring>

#if defined(__AVX512F__) || defined(__AVX__)
#include <immintrin.h>
#endif

#include "lulesh/types.hpp"

namespace lulesh::simd {

#if defined(__AVX512F__)
inline constexpr int width = 8;
using vec = __m512d;
#elif defined(__AVX__)
inline constexpr int width = 4;
using vec = __m256d;
#else
inline constexpr int width = 1;
using vec = real_t;
#endif

/// Elements per value of type T: width for vec, 1 for real_t.
template <class T>
inline constexpr int lanes = static_cast<int>(sizeof(T) / sizeof(real_t));

/// Runs body(T{}, k) for the blocks k = lo, lo + lanes<T>, ... that fit in
/// [lo, hi), then body(real_t{}, k) for each remaining element.
template <class T, class Body>
inline void for_blocks(index_t lo, index_t hi, Body&& body) {
    index_t k = lo;
    if constexpr (lanes<T> > 1) {
        for (; hi - k >= lanes<T>; k += lanes<T>) body(T{}, k);
    }
    for (; k < hi; ++k) body(real_t{}, k);
}

/// p[0 .. lanes<T>) as one value.
template <class T>
inline T load(const real_t* p) {
    T v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// Stores the lanes of v at p[0 .. lanes<T>).
template <class T>
inline void store(real_t* p, const T& v) {
    std::memcpy(p, &v, sizeof v);
}

/// Lane l of out[c] is base[nl[8 * l + c]]: with nl = d.nodelist(k), the
/// node values at the eight corners of each element of the block at k.
template <class T>
inline void gather_corners(const real_t* base, const index_t* nl, T out[8]) {
    for (int c = 0; c < 8; ++c) {
        if constexpr (lanes<T> == 1) {
            out[c] = base[nl[c]];
        } else {
            for (int l = 0; l < lanes<T>; ++l) out[c][l] = base[nl[8 * l + c]];
        }
    }
}

/// Lane l of f[c] is p[8 * l + c]: the eight corner values of each element
/// of the block, from an elem*8 + corner array at the block's first element.
template <class T>
inline void load_corners(const real_t* p, T f[8]) {
    if constexpr (lanes<T> == 1) {
        for (int c = 0; c < 8; ++c) f[c] = p[c];
    } else {
        for (int c = 0; c < 8; ++c) {
            for (int l = 0; l < lanes<T>; ++l) f[c][l] = p[8 * l + c];
        }
    }
}

/// The inverse of load_corners: stores lane l of f[c] at p[8 * l + c].
template <class T>
inline void store_corners(real_t* p, const T f[8]) {
    if constexpr (lanes<T> == 1) {
        for (int c = 0; c < 8; ++c) p[c] = f[c];
    } else {
        for (int l = 0; l < lanes<T>; ++l) {
            for (int c = 0; c < 8; ++c) p[8 * l + c] = f[c][l];
        }
    }
}

/// Whether any lane of the comparison result m holds.
inline bool any(bool m) { return m; }

template <class M>
inline bool any(const M& m) {
    for (int l = 0; l < static_cast<int>(sizeof m / sizeof m[0]); ++l) {
        if (m[l]) return true;
    }
    return false;
}

inline real_t sqrt(real_t x) { return std::sqrt(x); }

#if defined(__AVX512F__)
// The zero-masked form with every lane selected: GCC 12's _mm512_sqrt_pd
// passes an uninitialized pass-through operand and trips -Wuninitialized.
inline vec sqrt(vec x) { return _mm512_maskz_sqrt_pd(0xFF, x); }
#elif defined(__AVX__)
inline vec sqrt(vec x) { return _mm256_sqrt_pd(x); }
#endif

template <class T>
inline T cbrt(T x) {
    if constexpr (lanes<T> == 1) {
        return std::cbrt(x);
    } else {
        for (int l = 0; l < lanes<T>; ++l) x[l] = std::cbrt(x[l]);
        return x;
    }
}

}  // namespace lulesh::simd
