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
//
// The EOS (lulesh/eos.hpp) reaches its elements through a region list:
// gather and scatter address a block's lanes through the list, at() lets
// its fork-join loops address the reference's work arrays as lanes, and
// opaque() and keep() keep each of its repetitions real work.

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
using vec_u = __m512d_u;  ///< vec at any alignment
#elif defined(__AVX__)
inline constexpr int width = 4;
using vec = __m256d;
using vec_u = __m256d_u;
#else
inline constexpr int width = 1;
using vec = real_t;
using vec_u = real_t;
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

/// The type of an lvalue of `Lanes` consecutive real_t at any alignment:
/// real_t& for one, vec_u& for a vector.  It is keyed by the lane count
/// because GCC drops vec_u's alignment from a template argument, and a
/// vec_u& that lost it would make every access an aligned one.
template <int Lanes>
struct lvalue {
    using type = vec_u&;
};

template <>
struct lvalue<1> {
    using type = real_t&;
};

/// p[0 .. lanes<T>) as one lvalue: reads and writes through it are loads
/// and stores of those entries.
template <class T>
inline typename lvalue<lanes<T>>::type at(real_t* p) {
    if constexpr (lanes<T> == 1) {
        return *p;
    } else {
        // vec_u is declared may_alias, as the unaligned load and store
        // intrinsics that access memory through it require.
        return *reinterpret_cast<vec_u*>(p);
    }
}

/// Lane l is base[idx[l]]: a block's values of an element field, read
/// through a region element list.
template <class T>
inline T gather(const real_t* base, const index_t* idx) {
    if constexpr (lanes<T> == 1) {
        return base[idx[0]];
    } else {
        T v{};
        for (int l = 0; l < lanes<T>; ++l) v[l] = base[idx[l]];
        return v;
    }
}

/// The inverse of gather: stores lane l of v at base[idx[l]].
template <class T>
inline void scatter(real_t* base, const index_t* idx, const T& v) {
    if constexpr (lanes<T> == 1) {
        base[idx[0]] = v;
    } else {
        for (int l = 0; l < lanes<T>; ++l) base[idx[l]] = v[l];
    }
}

/// x in every lane.
template <class T>
inline T splat(real_t x) {
    if constexpr (lanes<T> == 1) {
        return x;
    } else {
        T v{};
        for (int l = 0; l < lanes<T>; ++l) v[l] = x;
        return v;
    }
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

inline real_t abs(real_t x) { return std::fabs(x); }

#if defined(__AVX512F__)
inline vec abs(vec x) { return _mm512_abs_pd(x); }
#elif defined(__AVX__)
inline vec abs(vec x) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x); }
#endif

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

// Repetition barrier.  The EOS evaluates its pipeline `rep` times over the
// same inputs: that is how the reference makes some regions 2x and 20x
// costlier than others, and the paper's region imbalance rests on it.  Once
// a block's values live in registers, the compiler sees that every
// repetition computes the same results and deletes all but the last, which
// silently removes the imbalance.  These empty asm statements keep every
// repetition real work without changing a bit: opaque(v...) makes the
// compiler assume each v was rewritten here, so each repetition's inputs
// are new to it, and keep(v...) makes it assume each v is read here, so no
// repetition's results are dead.  Neither emits an instruction.
namespace detail {

template <class T>
inline void opaque_one(T& v) {
#if defined(__x86_64__)
    asm volatile("" : "+v"(v));
#else
    asm volatile("" : "+m"(v));
#endif
}

template <class T>
inline void keep_one(const T& v) {
#if defined(__x86_64__)
    asm volatile("" : : "v"(v));
#else
    asm volatile("" : : "m"(v));
#endif
}

}  // namespace detail

template <class... T>
inline void opaque(T&... v) {
    (detail::opaque_one(v), ...);
}

template <class... T>
inline void keep(const T&... v) {
    (detail::keep_one(v), ...);
}

}  // namespace lulesh::simd
