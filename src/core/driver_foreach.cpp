// core/driver_foreach.cpp — naive for_each-style driver (ablation baseline).


#include "amt/atomic.hpp"
#include "core/driver_foreach.hpp"

namespace lulesh {

namespace {
namespace k = kernels;
}

template <class F>
void foreach_driver::pf(index_t n, F&& body) {
    // Chunking comparable to a parallel-algorithm default: a handful of
    // chunks per worker so the scheduler can balance, without the caller
    // tuning anything.
    const auto workers = static_cast<index_t>(rt_.num_workers());
    const index_t chunk = std::max<index_t>(1, n / (workers * 8));
    const char* site = trace_site_;
    auto wave = amt::bulk_async(
        rt_, 0, n, chunk,
        [body, site, chunk](amt::index_t lo, amt::index_t hi) mutable {
            amt::annotate_task(
                site, static_cast<std::int32_t>(static_cast<std::int64_t>(lo) /
                                                static_cast<std::int64_t>(
                                                    chunk)));
            body(static_cast<index_t>(lo), static_cast<index_t>(hi));
        });
    amt::wait_all(wave);
    for (auto& f : wave) f.get();
}

void foreach_driver::advance(domain& d) {
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const real_t dt = d.deltatime;

    const auto nes = static_cast<std::size_t>(ne);
    sigxx_.resize(nes);
    sigyy_.resize(nes);
    sigzz_.resize(nes);
    dvdx_.resize(nes * 8);
    dvdy_.resize(nes * 8);
    dvdz_.resize(nes * 8);
    x8n_.resize(nes * 8);
    y8n_.resize(nes * 8);
    z8n_.resize(nes * 8);
    determ_.resize(nes);

    amt::atomic<bool> ok{true};
    auto require = [&ok](status code, const char* what) {
        if (!ok.load(amt::memory_order_relaxed)) {
            throw simulation_error(code, what);
        }
    };

    // ---------------- LagrangeNodal ----------------
    trace_site_ = "foreach:nodal";
    pf(ne, [&](index_t lo, index_t hi) {
        k::init_stress_terms(d, lo, hi, sigxx_.data(), sigyy_.data(),
                             sigzz_.data());
    });
    pf(ne, [&](index_t lo, index_t hi) {
        if (!k::integrate_stress(d, lo, hi, sigxx_.data(), sigyy_.data(),
                                 sigzz_.data())) {
            ok.store(false, amt::memory_order_relaxed);
        }
    });
    require(status::volume_error, "non-positive Jacobian in stress integration");

    pf(ne, [&](index_t lo, index_t hi) {
        if (!k::calc_hourglass_control(d, lo, hi, dvdx_.data(), dvdy_.data(),
                                       dvdz_.data(), x8n_.data(), y8n_.data(),
                                       z8n_.data(), determ_.data())) {
            ok.store(false, amt::memory_order_relaxed);
        }
    });
    require(status::volume_error, "non-positive volume in hourglass control");

    if (d.hgcoef > real_t(0.0)) {
        pf(ne, [&](index_t lo, index_t hi) {
            k::calc_fb_hourglass_force(d, lo, hi, dvdx_.data(), dvdy_.data(),
                                       dvdz_.data(), x8n_.data(), y8n_.data(),
                                       z8n_.data(), determ_.data(), d.hgcoef);
        });
    }

    pf(nn, [&](index_t lo, index_t hi) { k::gather_forces(d, lo, hi); });
    pf(nn, [&](index_t lo, index_t hi) { k::calc_acceleration(d, lo, hi); });
    pf(static_cast<index_t>(d.symmX.size()),
       [&](index_t lo, index_t hi) { k::apply_acceleration_bc_x(d, lo, hi); });
    pf(static_cast<index_t>(d.symmY.size()),
       [&](index_t lo, index_t hi) { k::apply_acceleration_bc_y(d, lo, hi); });
    pf(static_cast<index_t>(d.symmZ.size()),
       [&](index_t lo, index_t hi) { k::apply_acceleration_bc_z(d, lo, hi); });
    pf(nn, [&](index_t lo, index_t hi) { k::calc_velocity(d, lo, hi, dt); });
    pf(nn, [&](index_t lo, index_t hi) { k::calc_position(d, lo, hi, dt); });

    // ---------------- LagrangeElements ----------------
    trace_site_ = "foreach:elem";
    pf(ne, [&](index_t lo, index_t hi) { k::calc_kinematics(d, lo, hi, dt); });
    pf(ne, [&](index_t lo, index_t hi) {
        if (!k::calc_lagrange_deviatoric(d, lo, hi)) {
            ok.store(false, amt::memory_order_relaxed);
        }
    });
    require(status::volume_error, "non-positive new volume in kinematics");

    pf(ne, [&](index_t lo, index_t hi) {
        k::calc_monotonic_q_gradients(d, lo, hi);
    });
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        pf(static_cast<index_t>(list.size()), [&](index_t lo, index_t hi) {
            k::calc_monotonic_q_region(d, list.data(), lo, hi);
        });
    }
    pf(ne, [&](index_t lo, index_t hi) {
        if (!k::check_qstop(d, lo, hi)) {
            ok.store(false, amt::memory_order_relaxed);
        }
    });
    require(status::qstop_error, "artificial viscosity exceeded qstop");

    pf(ne, [&](index_t lo, index_t hi) {
        if (!k::apply_material_vnewc(d, lo, hi)) {
            ok.store(false, amt::memory_order_relaxed);
        }
    });
    require(status::volume_error, "relative volume out of EOS range");

    trace_site_ = "foreach:eos";
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        if (count == 0) continue;
        eos_.resize(static_cast<std::size_t>(count));
        const index_t* lp = list.data();
        const int rep = k::eos_rep_for_region(d, r);
        for (int j = 0; j < rep; ++j) {
            pf(count, [&](index_t lo, index_t hi) { k::eos_gather_e(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_gather_delv(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_gather_p(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_gather_q(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_gather_qq_ql(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_compression(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_clamp_vmin(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_clamp_vmax(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::eos_zero_work(lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::energy_step1(d, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, eos_.comp_half_step.data(),
                                eos_.bvc.data(), eos_.pbvc.data());
            });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, eos_.p_half_step.data(),
                              eos_.bvc.data(), eos_.e_new.data());
            });
            pf(count, [&](index_t lo, index_t hi) { k::energy_q_half(d, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) { k::energy_step2(d, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, eos_.compression.data(),
                                eos_.bvc.data(), eos_.pbvc.data());
            });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, eos_.p_new.data(),
                              eos_.bvc.data(), eos_.e_new.data());
            });
            pf(count, [&](index_t lo, index_t hi) { k::energy_step3(d, lp, lo, hi, eos_); });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_bvc(lo, hi, eos_.compression.data(),
                                eos_.bvc.data(), eos_.pbvc.data());
            });
            pf(count, [&](index_t lo, index_t hi) {
                k::pressure_p(d, lp, lo, hi, eos_.p_new.data(),
                              eos_.bvc.data(), eos_.e_new.data());
            });
            pf(count, [&](index_t lo, index_t hi) { k::energy_q_final(d, lp, lo, hi, eos_); });
        }
        pf(count, [&](index_t lo, index_t hi) { k::eos_store(d, lp, lo, hi, eos_); });
        pf(count, [&](index_t lo, index_t hi) { k::eos_sound_speed(d, lp, lo, hi, eos_); });
    }

    pf(ne, [&](index_t lo, index_t hi) { k::update_volumes(d, lo, hi); });

    // ---------------- time constraints ----------------
    trace_site_ = "foreach:constraints";
    kernels::dt_constraints combined;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        if (count == 0) continue;
        const auto workers = static_cast<index_t>(rt_.num_workers());
        const index_t chunk = std::max<index_t>(1, count / (workers * 8));
        const auto slots =
            static_cast<std::size_t>((count + chunk - 1) / chunk);
        partials_.assign(slots, kernels::dt_constraints{});
        const index_t* lp = list.data();
        std::size_t slot = 0;
        std::vector<amt::future<void>> wave;
        wave.reserve(slots);
        for (index_t lo = 0; lo < count; lo += chunk) {
            const index_t hi = std::min<index_t>(lo + chunk, count);
            kernels::dt_constraints* out = &partials_[slot++];
            domain* dp = &d;
            const auto part = static_cast<std::int32_t>(slot - 1);
            wave.push_back(amt::async(rt_, [dp, lp, lo, hi, out, part] {
                amt::annotate_task("foreach:constraints", part);
                *out = k::calc_time_constraints(*dp, lp, lo, hi);
            }));
        }
        amt::wait_all(wave);
        for (auto& f : wave) f.get();
        for (const auto& partial : partials_) {
            combined = k::min_constraints(combined, partial);
        }
    }
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;
}

}  // namespace lulesh
