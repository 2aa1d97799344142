// core/graph_waves.cpp — the wave bodies and the dispatcher the compiled
// graph's task nodes call.

#include "core/graph_waves.hpp"

#include "lulesh/checkpoint_chain.hpp"

namespace lulesh::graph {

namespace wave_body {

namespace k = kernels;

void force_stress(domain& d, index_t lo, index_t hi,
                  amt::atomic<bool>& vol_ok) {
    if (!k::force_stress_chunk(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void force_hourglass(domain& d, index_t lo, index_t hi,
                     amt::atomic<bool>& vol_ok) {
    if (!k::force_hourglass_chunk(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void node_gather(domain& d, index_t lo, index_t hi) {
    k::gather_forces(d, lo, hi);
    k::calc_acceleration(d, lo, hi);
    k::apply_acceleration_bc_masked(d, lo, hi);
}

void node_velpos(domain& d, index_t lo, index_t hi, real_t dt) {
    k::velocity_position_chunk(d, lo, hi, dt);
}

void elem_fused(domain& d, index_t lo, index_t hi, real_t dt,
                amt::atomic<bool>& vol_ok, amt::atomic<bool>& q_ok) {
    k::calc_kinematics(d, lo, hi, dt);
    if (!k::calc_lagrange_deviatoric(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
    k::calc_monotonic_q_gradients(d, lo, hi);
    // q of the previous EOS pass; checked before this iteration's EOS
    // overwrites it (next wave).
    if (!k::check_qstop(d, lo, hi)) {
        q_ok.store(false, amt::memory_order_relaxed);
    }
    if (!k::apply_material_vnewc(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void region_monoq(domain& d, const index_t* list, index_t lo, index_t hi) {
    k::calc_monotonic_q_region(d, list, lo, hi);
}

void region_eos(domain& d, const index_t* list, index_t lo, index_t hi,
                int rep, kernels::eos_scratch& scratch) {
    scratch.resize(static_cast<std::size_t>(hi - lo));
    k::eval_eos_chunk(d, list, lo, hi, rep, scratch);
}

void volume_update(domain& d, index_t lo, index_t hi) {
    k::update_volumes(d, lo, hi);
}

void constraints(domain& d, const index_t* list, index_t lo, index_t hi,
                 kernels::dt_constraints& out) {
    out = k::calc_time_constraints(d, list, lo, hi);
}

}  // namespace wave_body

void run_body(const task_decl& t, const body_env& env,
              kernels::eos_scratch* scratch) {
    domain& d = *env.dom;
    switch (t.kind) {
        case body_kind::force_stress:
            wave_body::force_stress(d, t.lo, t.hi, *env.volume_ok);
            break;
        case body_kind::force_hourglass:
            wave_body::force_hourglass(d, t.lo, t.hi, *env.volume_ok);
            break;
        case body_kind::node:
            wave_body::node_gather(d, t.lo, t.hi);
            wave_body::node_velpos(d, t.lo, t.hi, env.dt);
            break;
        case body_kind::elem:
            wave_body::elem_fused(d, t.lo, t.hi, env.dt, *env.volume_ok,
                                  *env.qstop_ok);
            wave_body::volume_update(d, t.lo, t.hi);
            break;
        case body_kind::region: {
            const index_t* list = d.regElemList(t.region).data();
            wave_body::region_monoq(d, list, t.lo, t.hi);
            wave_body::region_eos(d, list, t.lo, t.hi,
                                  kernels::eos_rep_for_region(d, t.region),
                                  *scratch);
            wave_body::constraints(d, list, t.lo, t.hi,
                                   env.partials[t.slot]);
            break;
        }
        default:
            break;  // halo and checkpoint steps run driver code
    }
}

std::size_t constraint_slot_count(const domain& d, index_t p_elems) {
    std::size_t slots = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        slots += static_cast<std::size_t>(wave_chunks(
            static_cast<index_t>(d.regElemList(r).size()), p_elems));
    }
    return slots;
}

void pack_region_task(state_capture& cap, std::size_t i) {
    const auto part = static_cast<std::int32_t>(i);
    amt::annotate_task(ckpt_pack_site, part);
    try {
        amt::fault::probe(ckpt_pack_site);
        amt::trace::scoped_span span(amt::trace::event_kind::checkpoint_span,
                                     ckpt_pack_site, part);
        cap.pack_region(i);
    } catch (...) {
        cap.mark_failed();
    }
}

}  // namespace lulesh::graph
