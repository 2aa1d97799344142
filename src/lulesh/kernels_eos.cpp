// lulesh/kernels_eos.cpp — equation of state: the region-wise energy /
// pressure / viscosity update pipeline (reference EvalEOSForElems /
// CalcEnergyForElems / CalcPressureForElems / CalcSoundSpeedForElems), run
// over a region list by the two walkers of the phases in lulesh/eos.hpp.
//
// Region cost imbalance is modelled exactly as in the reference: the cheap
// half of the regions evaluates the pipeline once, the middle tier
// (1 + cost) times, and the most expensive ~5% of regions 10 * (1 + cost)
// times.  With the default cost = 1 this is the paper's "doubles the
// computation for 45% of the regions, and increases it even by twenty times
// for 5%".

#include <array>
#include <cstddef>

#include "lulesh/eos.hpp"
#include "lulesh/fields.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/simd.hpp"

namespace lulesh::kernels {

namespace {

/// The inputs of the block at l, read through the region list; the lane
/// argument gives their type.
template <class T>
inline eos::inputs<T> gather_inputs(const domain& d, const index_t* l, T) {
    return {simd::gather<T>(&d.e[0], l),  simd::gather<T>(&d.delv[0], l),
            simd::gather<T>(&d.p[0], l),  simd::gather<T>(&d.q[0], l),
            simd::gather<T>(&d.qq[0], l), simd::gather<T>(&d.ql[0], l),
            simd::gather<T>(&d.vnewc[0], l)};
}

/// The work values at local index i of `s`, lanes<T> entries each.
template <class T>
eos::values<T, simd::lvalue<simd::lanes<T>>> work_at(eos_scratch& s,
                                                      index_t i) {
    const auto j = static_cast<std::size_t>(i);
    return {
        simd::at<T>(&s.e_old[j]),       simd::at<T>(&s.delvc[j]),
        simd::at<T>(&s.p_old[j]),       simd::at<T>(&s.q_old[j]),
        simd::at<T>(&s.qq_old[j]),      simd::at<T>(&s.ql_old[j]),
        simd::at<T>(&s.compression[j]), simd::at<T>(&s.comp_half_step[j]),
        simd::at<T>(&s.work[j]),        simd::at<T>(&s.p_new[j]),
        simd::at<T>(&s.e_new[j]),       simd::at<T>(&s.q_new[j]),
        simd::at<T>(&s.bvc[j]),         simd::at<T>(&s.pbvc[j]),
        simd::at<T>(&s.p_half_step[j])};
}

/// The fork-join walker: one phase as one loop over the local indices
/// [lo, hi) of a region list, its values in the work arrays of `s`.  Each
/// phase reads and writes exactly the arrays and inputs it names; the
/// inputs it does not read are never gathered.
template <class Phase>
void phase_loop(domain& d, const index_t* list, index_t lo, index_t hi,
                eos_scratch& s) {
    const eos::constants c(d);
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        auto w = work_at<T>(s, i);
        Phase{}(w, gather_inputs(d, list + i, lane), c);
    });
}

constexpr std::size_t repetition_length = [] {
    std::size_t n = 0;
    eos::visit_eos_repetition([&](auto) { ++n; });
    return n;
}();

constexpr std::array<eos_phase, repetition_length> repetition_loops = [] {
    std::array<eos_phase, repetition_length> loops{};
    std::size_t n = 0;
    eos::visit_eos_repetition(
        [&](auto phase) { loops[n++] = &phase_loop<decltype(phase)>; });
    return loops;
}();

}  // namespace

void eos_scratch::resize(std::size_t n) {
    for (auto* a : {&e_old, &delvc, &p_old, &q_old, &qq_old, &ql_old,
                    &compression, &comp_half_step, &work, &p_new, &e_new,
                    &q_new, &bvc, &pbvc, &p_half_step}) {
        a->resize(n);
    }
}

int eos_rep_for_region(const domain& d, index_t r) {
    const index_t num_reg = d.numReg();
    if (r < num_reg / 2) return 1;
    if (r < (num_reg - (num_reg + 15) / 20)) return 1 + d.cost();
    return 10 * (1 + d.cost());
}

std::span<const eos_phase> eos_repetition_phases() { return repetition_loops; }

void eos_store(domain& d, const index_t* list, index_t lo, index_t hi,
               eos_scratch& s) {
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        const auto j = static_cast<std::size_t>(i);
        simd::scatter(&d.p[0], list + i, simd::load<T>(&s.p_new[j]));
        simd::scatter(&d.e[0], list + i, simd::load<T>(&s.e_new[j]));
        simd::scatter(&d.q[0], list + i, simd::load<T>(&s.q_new[j]));
    });
}

void eos_sound_speed(domain& d, const index_t* list, index_t lo, index_t hi,
                     eos_scratch& s) {
    const eos::constants c(d);
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t i) {
        using T = decltype(lane);
        simd::scatter(&d.ss[0], list + i,
                      eos::sound_speed(work_at<T>(s, i),
                                       gather_inputs(d, list + i, lane), c));
    });
}

void eval_eos_chunk(domain& d, const index_t* list, index_t lo, index_t hi,
                    int rep) {
    hazard_covers(field::e, true);  // gathered and scattered through list
    hazard_covers(field::delv);
    hazard_covers(field::p, true);
    hazard_covers(field::q, true);
    hazard_covers(field::qq);
    hazard_covers(field::ql);
    hazard_covers(field::vnewc);
    hazard_covers(field::ss, true);
    const eos::constants c(d);

    // The task-body walker: each block's values stay in registers through
    // all `rep` repetitions.  Each repetition gathers its inputs afresh, as
    // the reference does, and the repetition barrier keeps every one of
    // them real work (simd::opaque, simd::keep).
    simd::for_blocks<simd::vec>(lo, hi, [&](auto lane, index_t k) {
        using T = decltype(lane);
        const index_t* l = list + k;
        eos::values<T> s{};
        eos::inputs<T> in{};
        int j = 0;
        do {
            in = gather_inputs(d, l, lane);
            simd::opaque(in.e, in.delv, in.p, in.q, in.qq, in.ql, in.vnewc);
            eos::visit_eos_repetition([&](auto phase) { phase(s, in, c); });
            simd::keep(s.p_new, s.e_new, s.q_new);
        } while (++j < rep);
        simd::scatter(&d.p[0], l, s.p_new);
        simd::scatter(&d.e[0], l, s.e_new);
        simd::scatter(&d.q[0], l, s.q_new);
        simd::scatter(&d.ss[0], l, eos::sound_speed(s, in, c));
    });
}

}  // namespace lulesh::kernels
