// lulesh/driver_serial.cpp — single-threaded reference-ordered driver.

#include "amt/fault.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

void serial_driver::advance(domain& d) {
    namespace k = kernels;
    // One injection site per iteration — enough for epoch-targeted fault
    // plans to hit a deterministic cycle in this driver too.
    amt::fault::probe("advance");
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const real_t dt = d.deltatime;

    // ---------------- LagrangeNodal ----------------
    auto& s = scratch_;
    s.resize(ne);

    k::init_stress_terms(d, 0, ne, s.sigxx.data(), s.sigyy.data(),
                         s.sigzz.data());
    if (!k::integrate_stress(d, 0, ne, s.sigxx.data(), s.sigyy.data(),
                             s.sigzz.data())) {
        throw simulation_error(status::volume_error,
                               "non-positive Jacobian in stress integration");
    }
    if (!k::calc_hourglass_control(d, 0, ne, s.dvdx.data(), s.dvdy.data(),
                                   s.dvdz.data(), s.x8n.data(), s.y8n.data(),
                                   s.z8n.data(), s.determ.data())) {
        throw simulation_error(status::volume_error,
                               "non-positive volume in hourglass control");
    }
    if (d.hgcoef > real_t(0.0)) {
        k::calc_fb_hourglass_force(d, 0, ne, s.dvdx.data(), s.dvdy.data(),
                                   s.dvdz.data(), s.x8n.data(), s.y8n.data(),
                                   s.z8n.data(), s.determ.data(), d.hgcoef);
    }
    k::gather_forces(d, 0, nn);

    k::calc_acceleration(d, 0, nn);
    k::apply_acceleration_bc_x(d, 0, static_cast<index_t>(d.symmX.size()));
    k::apply_acceleration_bc_y(d, 0, static_cast<index_t>(d.symmY.size()));
    k::apply_acceleration_bc_z(d, 0, static_cast<index_t>(d.symmZ.size()));
    k::calc_velocity(d, 0, nn, dt);
    k::calc_position(d, 0, nn, dt);

    // ---------------- LagrangeElements ----------------
    k::calc_kinematics(d, 0, ne, dt);
    if (!k::calc_lagrange_deviatoric(d, 0, ne)) {
        throw simulation_error(status::volume_error,
                               "non-positive new volume in kinematics");
    }

    k::calc_monotonic_q_gradients(d, 0, ne);
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        k::calc_monotonic_q_region(d, list.data(), 0,
                                   static_cast<index_t>(list.size()));
    }
    if (!k::check_qstop(d, 0, ne)) {
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
    }

    if (!k::apply_material_vnewc(d, 0, ne)) {
        throw simulation_error(status::volume_error,
                               "relative volume out of EOS range");
    }
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        if (count == 0) continue;
        s.eos.resize(static_cast<std::size_t>(count));
        k::eval_eos_chunk(d, list.data(), 0, count, k::eos_rep_for_region(d, r),
                          s.eos);
    }
    k::update_volumes(d, 0, ne);

    // ---------------- time constraints ----------------
    kernels::dt_constraints c;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        c = k::min_constraints(
            c, k::calc_time_constraints(d, list.data(), 0,
                                        static_cast<index_t>(list.size())));
    }
    d.dtcourant = c.dtcourant;
    d.dthydro = c.dthydro;
}

}  // namespace lulesh
