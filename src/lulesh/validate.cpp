// lulesh/validate.cpp — solution validation and reporting.

#include "lulesh/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lulesh/options.hpp"

namespace lulesh {

symmetry_report check_energy_symmetry(const domain& d) {
    return check_energy_symmetry(d.e, d.size_per_edge());
}

symmetry_report check_energy_symmetry(std::span<const real_t> e,
                                      index_t size) {
    symmetry_report rep;
    const index_t s = size;
    auto elem = [s](index_t i, index_t j, index_t k) {
        return static_cast<std::size_t>(k * s * s + j * s + i);
    };
    for (index_t k = 0; k < s; ++k) {
        for (index_t j = 0; j < s; ++j) {
            for (index_t i = 0; i < s; ++i) {
                const real_t base = e[elem(i, j, k)];
                // All permutations of (i, j, k).
                const real_t perms[5] = {
                    e[elem(j, i, k)], e[elem(i, k, j)], e[elem(k, j, i)],
                    e[elem(j, k, i)], e[elem(k, i, j)]};
                for (real_t other : perms) {
                    const real_t diff = std::fabs(base - other);
                    rep.max_abs_diff = std::max(rep.max_abs_diff, diff);
                    rep.total_abs_diff += diff;
                    const real_t denom = std::max(std::fabs(base), real_t(1e-30));
                    rep.max_rel_diff = std::max(rep.max_rel_diff, diff / denom);
                }
            }
        }
    }
    return rep;
}

real_t max_field_difference(const domain& a, const domain& b) {
    real_t max_diff = 0.0;
    auto compare = [&max_diff](const std::vector<real_t>& u,
                               const std::vector<real_t>& v) {
        const std::size_t n = std::min(u.size(), v.size());
        for (std::size_t i = 0; i < n; ++i) {
            max_diff = std::max(max_diff, std::fabs(u[i] - v[i]));
        }
        if (u.size() != v.size()) max_diff = real_t(1e300);
    };
    compare(a.x, b.x);
    compare(a.y, b.y);
    compare(a.z, b.z);
    compare(a.xd, b.xd);
    compare(a.yd, b.yd);
    compare(a.zd, b.zd);
    compare(a.e, b.e);
    compare(a.p, b.p);
    compare(a.q, b.q);
    compare(a.v, b.v);
    compare(a.ss, b.ss);
    return max_diff;
}

std::string final_report(const domain& d, const run_result& result) {
    return final_report(d.e, d.size_per_edge(), result);
}

std::string final_report(std::span<const real_t> e, index_t size,
                         const run_result& result) {
    const symmetry_report sym = check_energy_symmetry(e, size);
    // Reference metrics: grind time = µs per element-iteration, FOM = zone
    // cycles per second.
    const double work = static_cast<double>(size) * static_cast<double>(size) *
                        static_cast<double>(size) *
                        static_cast<double>(result.cycles);
    const double grind_us =
        work > 0.0 ? result.elapsed_seconds * 1.0e6 / work : 0.0;
    const double fom =
        result.elapsed_seconds > 0.0 ? work / result.elapsed_seconds : 0.0;
    std::ostringstream os;
    os.precision(6);
    os << std::scientific;
    os << "Run completed:\n"
       << "  Problem size            = " << size << "\n"
       << "  Iteration count         = " << result.cycles << "\n"
       << "  Final simulated time    = " << result.final_time << "\n"
       << "  Final origin energy     = " << result.final_origin_energy << "\n"
       << "  Max symmetry abs diff   = " << sym.max_abs_diff << "\n"
       << "  Total symmetry abs diff = " << sym.total_abs_diff << "\n"
       << "  Max symmetry rel diff   = " << sym.max_rel_diff << "\n"
       << "  Elapsed wall time (s)   = " << result.elapsed_seconds << "\n"
       << "  Grind time (us/z/c)     = " << grind_us << "\n"
       << "  FOM (z/s)               = " << fom << "\n";
    return os.str();
}

}  // namespace lulesh
