// lulesh/eos.hpp
//
// The equation of state (reference EvalEOSForElems, CalcEnergyForElems,
// CalcPressureForElems and CalcSoundSpeedForElems) written once, per
// element, as templates on the value type: real_t evaluates one element,
// simd::vec one element per lane (simd.hpp), and each lane is bitwise the
// real_t result.  The reference's branches are selects that take the
// branch's side for every input, NaN included: `if (delvc <= 0) q = qf`
// becomes `q = delvc <= 0 ? qf : q`, never `q = delvc > 0 ? q : qf`.
//
// visit_eos_repetition lists the phases of one repetition in the
// reference's order.  Each phase updates a block's work values (values)
// from its inputs, which are read through the region list (inputs).
// Two walkers run them (lulesh/kernels_eos.cpp):
//  * eval_eos_chunk, the task body, holds one block's values in registers
//    and runs the phases `rep` times between a gather of the seven inputs
//    and a scatter of p, e, q and ss;
//  * the fork-join step runs each phase as its own loop over a region, the
//    baseline's structure, with the values in the reference's work arrays
//    (eos_scratch).

#pragma once

#include "lulesh/domain.hpp"
#include "lulesh/simd.hpp"
#include "lulesh/types.hpp"

namespace lulesh::kernels::eos {

/// The EOS's scalar parameters, read once from the domain.
struct constants {
    real_t eosvmin, eosvmax, emin, pmin, p_cut, e_cut, q_cut, rho0;

    explicit constants(const domain& d)
        : eosvmin(d.eosvmin),
          eosvmax(d.eosvmax),
          emin(d.emin),
          pmin(d.pmin),
          p_cut(d.p_cut),
          e_cut(d.e_cut),
          q_cut(d.q_cut),
          rho0(d.refdens) {}
};

/// A block's inputs: e, delv, p, q, qq, ql and vnewc of its elements.
template <class T>
struct inputs {
    T e, delv, p, q, qq, ql, vnewc;
};

/// Holds a block's work values in variables of type T.
template <class T>
struct in_registers {
    using type = T;
};

/// A block's work values, one per work array of the reference, as
/// Where::type: variables (in_registers<T>, the task body) or lvalues in
/// eos_scratch's arrays (simd::lvalue<simd::lanes<T>>, the fork-join loops).
template <class T, class Where = in_registers<T>>
struct values {
    typename Where::type e_old, delvc, p_old, q_old, qq_old, ql_old;
    typename Where::type compression, comp_half_step, work;
    typename Where::type p_new, e_new, q_new, bvc, pbvc, p_half_step;
};

/// CalcPressureForElems's bvc for a compression; its pbvc is c1s.
inline constexpr real_t c1s = real_t(2.0) / real_t(3.0);

template <class T>
inline T pressure_bvc(T compression) {
    return c1s * (compression + real_t(1.0));
}

/// bvc * e with the p_cut snap to zero, zero where vnewc >= eosvmax, and
/// the pmin floor.
template <class T>
inline T pressure(T bvc, T e, T vnewc, const constants& c) {
    T p = bvc * e;
    p = simd::abs(p) < c.p_cut ? real_t(0.0) : p;
    p = vnewc >= c.eosvmax ? real_t(0.0) : p;
    return p < c.pmin ? c.pmin : p;
}

/// (pbvc e + v^2 bvc p) / rho0, the squared sound speed of the viscosity
/// and sound-speed terms.
template <class T>
inline T sound_speed_sq(T pbvc, T e, T v, T bvc, T p, real_t rho0) {
    return (pbvc * e + v * v * bvc * p) / rho0;
}

/// sqrt(ssc), or the reference's .3333333e-18 where ssc <= tiny.
template <class T>
inline T root_or_floor(T ssc, real_t tiny) {
    return ssc <= tiny ? real_t(.3333333e-18) : simd::sqrt(ssc);
}

/// ssc * ql + qq: the viscosity of a compressing element.
template <class T>
inline T viscosity(T ssc, T ql, T qq) {
    return root_or_floor(ssc, real_t(.1111111e-36)) * ql + qq;
}

// The phases.  Each is phase(s, in, c) over one block: s is values<T, ...>,
// in is inputs<T>, and T is the value type.

inline constexpr auto gather_e = [](auto& s, const auto& in,
                                    const constants&) { s.e_old = in.e; };
inline constexpr auto gather_delv = [](auto& s, const auto& in,
                                       const constants&) {
    s.delvc = in.delv;
};
inline constexpr auto gather_p = [](auto& s, const auto& in,
                                    const constants&) { s.p_old = in.p; };
inline constexpr auto gather_q = [](auto& s, const auto& in,
                                    const constants&) { s.q_old = in.q; };
inline constexpr auto gather_qq_ql = [](auto& s, const auto& in,
                                        const constants&) {
    s.qq_old = in.qq;
    s.ql_old = in.ql;
};

inline constexpr auto compression = [](auto& s, const auto& in,
                                       const constants&) {
    using T = decltype(in.e);
    s.compression = real_t(1.0) / in.vnewc - real_t(1.0);
    const T vchalf = in.vnewc - s.delvc * real_t(0.5);
    s.comp_half_step = real_t(1.0) / vchalf - real_t(1.0);
};

/// Where vnewc <= eosvmin the half step takes the full step's compression
/// (impossible after apply_material_vnewc's clamp, but kept as in the
/// reference).
inline constexpr auto clamp_vmin = [](auto& s, const auto& in,
                                      const constants& c) {
    if (c.eosvmin != real_t(0.0)) {
        s.comp_half_step =
            in.vnewc <= c.eosvmin ? s.compression : s.comp_half_step;
    }
};

/// Where vnewc >= eosvmax: no old pressure and no compression.
inline constexpr auto clamp_vmax = [](auto& s, const auto& in,
                                      const constants& c) {
    if (c.eosvmax != real_t(0.0)) {
        const auto m = in.vnewc >= c.eosvmax;
        s.p_old = m ? real_t(0.0) : s.p_old;
        s.compression = m ? real_t(0.0) : s.compression;
        s.comp_half_step = m ? real_t(0.0) : s.comp_half_step;
    }
};

inline constexpr auto zero_work = [](auto& s, const auto& in,
                                     const constants&) {
    s.work = simd::splat<decltype(in.e)>(real_t(0.0));
};

inline constexpr auto energy_step1 = [](auto& s, const auto& in,
                                        const constants& c) {
    using T = decltype(in.e);
    const T e_new = s.e_old -
                    real_t(0.5) * s.delvc * (s.p_old + s.q_old) +
                    real_t(0.5) * s.work;
    s.e_new = e_new < c.emin ? c.emin : e_new;
};

/// bvc and pbvc of the half-step compression.
inline constexpr auto bvc_of_half_step = [](auto& s, const auto& in,
                                            const constants&) {
    using T = decltype(in.e);
    s.bvc = pressure_bvc<T>(s.comp_half_step);
    s.pbvc = simd::splat<T>(c1s);
};

/// bvc and pbvc of the full-step compression.
inline constexpr auto bvc_of_compression = [](auto& s, const auto& in,
                                              const constants&) {
    using T = decltype(in.e);
    s.bvc = pressure_bvc<T>(s.compression);
    s.pbvc = simd::splat<T>(c1s);
};

inline constexpr auto pressure_half_step = [](auto& s, const auto& in,
                                              const constants& c) {
    using T = decltype(in.e);
    s.p_half_step = pressure<T>(s.bvc, s.e_new, in.vnewc, c);
};

inline constexpr auto pressure_new = [](auto& s, const auto& in,
                                        const constants& c) {
    using T = decltype(in.e);
    s.p_new = pressure<T>(s.bvc, s.e_new, in.vnewc, c);
};

/// The half-step viscosity (zero where the element expands) and the
/// energy's half-step update.
inline constexpr auto energy_q_half = [](auto& s, const auto& in,
                                         const constants& c) {
    using T = decltype(in.e);
    const T vhalf = real_t(1.0) / (real_t(1.0) + s.comp_half_step);
    const T ssc = sound_speed_sq<T>(s.pbvc, s.e_new, vhalf, s.bvc,
                                    s.p_half_step, c.rho0);
    const T q_new = s.delvc > real_t(0.0)
                        ? real_t(0.0)
                        : viscosity<T>(ssc, s.ql_old, s.qq_old);
    s.q_new = q_new;
    s.e_new = s.e_new + real_t(0.5) * s.delvc *
                            (real_t(3.0) * (s.p_old + s.q_old) -
                             real_t(4.0) * (s.p_half_step + q_new));
};

inline constexpr auto energy_step2 = [](auto& s, const auto& in,
                                        const constants& c) {
    using T = decltype(in.e);
    T e_new = s.e_new + real_t(0.5) * s.work;
    e_new = simd::abs(e_new) < c.e_cut ? real_t(0.0) : e_new;
    s.e_new = e_new < c.emin ? c.emin : e_new;
};

inline constexpr auto energy_step3 = [](auto& s, const auto& in,
                                        const constants& c) {
    using T = decltype(in.e);
    constexpr real_t sixth = real_t(1.0) / real_t(6.0);
    const T ssc = sound_speed_sq<T>(s.pbvc, s.e_new, in.vnewc, s.bvc,
                                    s.p_new, c.rho0);
    const T q_tilde = s.delvc > real_t(0.0)
                          ? real_t(0.0)
                          : viscosity<T>(ssc, s.ql_old, s.qq_old);
    T e_new = s.e_new - (real_t(7.0) * (s.p_old + s.q_old) -
                         real_t(8.0) * (s.p_half_step + s.q_new) +
                         (s.p_new + q_tilde)) *
                            s.delvc * sixth;
    e_new = simd::abs(e_new) < c.e_cut ? real_t(0.0) : e_new;
    s.e_new = e_new < c.emin ? c.emin : e_new;
};

/// The final viscosity, recomputed where the element compresses.
inline constexpr auto energy_q_final = [](auto& s, const auto& in,
                                          const constants& c) {
    using T = decltype(in.e);
    const T ssc = sound_speed_sq<T>(s.pbvc, s.e_new, in.vnewc, s.bvc,
                                    s.p_new, c.rho0);
    T q_final = viscosity<T>(ssc, s.ql_old, s.qq_old);
    q_final = simd::abs(q_final) < c.q_cut ? real_t(0.0) : q_final;
    s.q_new = s.delvc <= real_t(0.0) ? q_final : s.q_new;
};

/// The sound speed the store writes to ss (the reference's floor test uses
/// 1.111111e-36 here, .1111111e-36 in the energy phases).
template <class T, class Where>
inline T sound_speed(const values<T, Where>& s, const inputs<T>& in,
                     const constants& c) {
    return root_or_floor(sound_speed_sq<T>(s.pbvc, s.e_new, in.vnewc, s.bvc,
                                           s.p_new, c.rho0),
                         real_t(1.111111e-36));
}

/// One repetition of the pipeline: visit(phase) for each phase, in the
/// reference's order.
template <class Visit>
constexpr void visit_eos_repetition(Visit&& visit) {
    visit(gather_e);
    visit(gather_delv);
    visit(gather_p);
    visit(gather_q);
    visit(gather_qq_ql);
    visit(compression);
    visit(clamp_vmin);
    visit(clamp_vmax);
    visit(zero_work);
    visit(energy_step1);
    // pHalfStep, and the bvc/pbvc energy_q_half reads, come from the
    // half-step compression.
    visit(bvc_of_half_step);
    visit(pressure_half_step);
    visit(energy_q_half);
    visit(energy_step2);
    visit(bvc_of_compression);
    visit(pressure_new);
    visit(energy_step3);
    visit(bvc_of_compression);
    visit(pressure_new);
    visit(energy_q_final);
}

}  // namespace lulesh::kernels::eos
