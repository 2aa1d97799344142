// lulesh/fork_join_step.hpp
//
// One LagrangeLeapFrog iteration in the OpenMP reference's fork-join form,
// written once for the three drivers that keep it: parallel_for_driver
// (ompsim team), openmp_driver (libgomp) and foreach_driver (amt waves).
// Every reference parallel loop is one loop of the driver's backend, with a
// barrier after it — about 30 per iteration, plus about 20 per region for
// each EOS repetition.  A backend supplies three loop operations:
//
//   be.loop(n, body)         one parallel loop over [0, n): body(lo, hi) on
//                            each chunk, then the implicit barrier;
//   be.nowait_loops(l...)    a group of nowait_loop{n, body} loops with no
//                            barrier between them, one barrier after the
//                            last (the reference's one-region boundary
//                            conditions);
//   be.reduce_min(n, body)   a parallel loop whose chunks each return a
//                            kernels::dt_constraints partial; returns their
//                            min (the reference's reduction(min:...) loops);
//
// and be.section(s), called before each section's first loop, which the
// foreach backend uses to label its tasks.  The step owns the error
// protocol: a kernel that detects a violation clears one flag, and the step
// throws simulation_error after that loop's barrier.

#pragma once

#include "amt/atomic.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

/// The iteration's sections, in order.
enum class step_section { nodal, elem, eos, constraints };

/// One loop of a nowait group: body(lo, hi) over the chunks of [0, n).
template <class Body>
struct nowait_loop {
    index_t n;
    Body body;
};

template <class Backend>
void fork_join_step(domain& d, Backend& be, kernels::reference_scratch& s) {
    namespace k = kernels;
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const real_t dt = d.deltatime;
    s.resize(ne);

    amt::atomic<bool> ok{true};
    // A loop over a kernel that returns false on a violation; the step
    // aborts after the loop, as the reference does.
    auto checked_loop = [&](index_t n, status code, const char* what,
                            auto&& kernel) {
        be.loop(n, [&](index_t lo, index_t hi) {
            if (!kernel(lo, hi)) ok.store(false, amt::memory_order_relaxed);
        });
        if (!ok.load(amt::memory_order_relaxed)) {
            throw simulation_error(code, what);
        }
    };
    auto region_size = [&](index_t r) {
        return static_cast<index_t>(d.regElemList(r).size());
    };

    // ---------------- LagrangeNodal ----------------
    be.section(step_section::nodal);
    be.loop(ne, [&](index_t lo, index_t hi) {
        k::init_stress_terms(d, lo, hi, s.sigxx.data(), s.sigyy.data(),
                             s.sigzz.data());
    });
    checked_loop(ne, status::volume_error,
                 "non-positive Jacobian in stress integration",
                 [&](index_t lo, index_t hi) {
                     return k::integrate_stress(d, lo, hi, s.sigxx.data(),
                                                s.sigyy.data(), s.sigzz.data());
                 });
    checked_loop(ne, status::volume_error,
                 "non-positive volume in hourglass control",
                 [&](index_t lo, index_t hi) {
                     return k::calc_hourglass_control(
                         d, lo, hi, s.dvdx.data(), s.dvdy.data(),
                         s.dvdz.data(), s.x8n.data(), s.y8n.data(),
                         s.z8n.data(), s.determ.data());
                 });
    if (d.hgcoef > real_t(0.0)) {
        be.loop(ne, [&](index_t lo, index_t hi) {
            k::calc_fb_hourglass_force(d, lo, hi, s.dvdx.data(), s.dvdy.data(),
                                       s.dvdz.data(), s.x8n.data(),
                                       s.y8n.data(), s.z8n.data(),
                                       s.determ.data(), d.hgcoef);
        });
    }
    be.loop(nn, [&](index_t lo, index_t hi) { k::gather_forces(d, lo, hi); });
    be.loop(nn,
            [&](index_t lo, index_t hi) { k::calc_acceleration(d, lo, hi); });
    be.nowait_loops(
        nowait_loop{static_cast<index_t>(d.symmX.size()),
                    [&](index_t lo, index_t hi) {
                        k::apply_acceleration_bc_x(d, lo, hi);
                    }},
        nowait_loop{static_cast<index_t>(d.symmY.size()),
                    [&](index_t lo, index_t hi) {
                        k::apply_acceleration_bc_y(d, lo, hi);
                    }},
        nowait_loop{static_cast<index_t>(d.symmZ.size()),
                    [&](index_t lo, index_t hi) {
                        k::apply_acceleration_bc_z(d, lo, hi);
                    }});
    be.loop(nn,
            [&](index_t lo, index_t hi) { k::calc_velocity(d, lo, hi, dt); });
    be.loop(nn,
            [&](index_t lo, index_t hi) { k::calc_position(d, lo, hi, dt); });

    // ---------------- LagrangeElements ----------------
    be.section(step_section::elem);
    be.loop(ne,
            [&](index_t lo, index_t hi) { k::calc_kinematics(d, lo, hi, dt); });
    checked_loop(ne, status::volume_error,
                 "non-positive new volume in kinematics",
                 [&](index_t lo, index_t hi) {
                     return k::calc_lagrange_deviatoric(d, lo, hi);
                 });
    be.loop(ne, [&](index_t lo, index_t hi) {
        k::calc_monotonic_q_gradients(d, lo, hi);
    });
    // One loop per region, serialized over regions (the structure the paper
    // identifies as the baseline's region-scaling weakness).
    for (index_t r = 0; r < d.numReg(); ++r) {
        const index_t* list = d.regElemList(r).data();
        be.loop(region_size(r), [&](index_t lo, index_t hi) {
            k::calc_monotonic_q_region(d, list, lo, hi);
        });
    }
    checked_loop(ne, status::qstop_error, "artificial viscosity exceeded qstop",
                 [&](index_t lo, index_t hi) {
                     return k::check_qstop(d, lo, hi);
                 });
    checked_loop(ne, status::volume_error, "relative volume out of EOS range",
                 [&](index_t lo, index_t hi) {
                     return k::apply_material_vnewc(d, lo, hi);
                 });

    // Region-wise EOS: every phase of every repetition is its own loop.
    be.section(step_section::eos);
    for (index_t r = 0; r < d.numReg(); ++r) {
        const index_t count = region_size(r);
        if (count == 0) continue;
        const index_t* list = d.regElemList(r).data();
        s.eos.resize(static_cast<std::size_t>(count));
        k::visit_eos_phases(k::eos_rep_for_region(d, r), [&](auto phase) {
            be.loop(count, [&](index_t lo, index_t hi) {
                phase(d, list, lo, hi, s.eos);
            });
        });
    }
    be.loop(ne, [&](index_t lo, index_t hi) { k::update_volumes(d, lo, hi); });

    // ---------------- time constraints ----------------
    // One min-reduction per region, as in the reference.
    be.section(step_section::constraints);
    k::dt_constraints combined;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const index_t* list = d.regElemList(r).data();
        combined = k::min_constraints(
            combined,
            be.reduce_min(region_size(r), [&](index_t lo, index_t hi) {
                return k::calc_time_constraints(d, list, lo, hi);
            }));
    }
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;
}

}  // namespace lulesh
