// lulesh/validate.hpp
//
// Solution validation utilities mirroring the reference's
// VerifyAndWriteFinalOutput: symmetry of the Sedov solution across the three
// coordinate permutations, and cross-run field comparison used by the test
// suite to prove driver equivalence.

#pragma once

#include <span>
#include <string>

#include "lulesh/domain.hpp"

namespace lulesh {

/// Measured asymmetry of the energy field under coordinate permutation.
/// The Sedov problem and mesh are symmetric under any permutation of the
/// (i, j, k) element indices, so e(i,j,k) must equal e(j,i,k) etc. up to
/// floating-point noise.
struct symmetry_report {
    real_t max_abs_diff = 0.0;
    real_t total_abs_diff = 0.0;
    real_t max_rel_diff = 0.0;
};

/// Checks e(i,j,k) against all index permutations.
symmetry_report check_energy_symmetry(const domain& d);

/// The same over `e`, the energy field of a whole size^3 mesh (a cluster's
/// slab fields concatenated in z order).
symmetry_report check_energy_symmetry(std::span<const real_t> e,
                                      index_t size);

/// Field-by-field comparison of two domains (same problem size required).
/// Returns the maximum absolute difference over the primary state fields
/// (x, y, z, xd, yd, zd, e, p, q, v, ss); 0.0 means bitwise identical.
real_t max_field_difference(const domain& a, const domain& b);

/// Human-readable end-of-run report in the style of the reference output.
std::string final_report(const domain& d, const run_result& result);

/// The same for the whole size^3 mesh whose energy field is `e`.
std::string final_report(std::span<const real_t> e, index_t size,
                         const run_result& result);

}  // namespace lulesh
