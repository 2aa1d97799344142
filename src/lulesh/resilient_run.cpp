// lulesh/resilient_run.cpp — the plain run loop and the rollback-and-replay
// loop over per-slab two-record checkpoint rings, and their one-domain
// system.

#include "lulesh/resilient_run.hpp"

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "amt/counters.hpp"
#include "amt/fault.hpp"
#include "amt/trace.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

namespace {

/// The run's error message: the failure, where it struck, and — under the
/// resilient loop (`recoveries` >= 0) — the recoveries it exhausted.
std::string describe_failure(const char* what, int cycle, real_t dt,
                             int recoveries = -1) {
    std::ostringstream os;
    os << what << " (cycle " << cycle << ", dt " << dt;
    if (recoveries >= 0) os << "; " << recoveries << " recoveries exhausted";
    os << ")";
    return os.str();
}

/// Fills the run's end state from slab 0 (the slab owning the global
/// origin element) and its wall time since `t0`.
void finish(run_result& r, const domain& d0,
            std::chrono::steady_clock::time_point t0) {
    const auto t1 = std::chrono::steady_clock::now();
    r.cycles = d0.cycle;
    r.final_time = d0.time_;
    r.final_dt = d0.deltatime;
    r.final_origin_energy = d0.e[0];
    r.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
}

/// One domain under any driver.
class domain_system final : public resilient_system {
public:
    domain_system(domain& d, driver& drv) : d_(d), drv_(drv) {}

    [[nodiscard]] index_t num_slabs() const override { return 1; }
    domain& slab(index_t /*i*/) override { return d_; }
    void advance() override { drv_.advance(d_); }
    bool submit_capture(index_t /*i*/,
                        std::shared_ptr<state_capture> cap) override {
        return drv_.submit_overlapped_capture(std::move(cap));
    }

private:
    domain& d_;
    driver& drv_;
};

}  // namespace

failure_diagnosis resilient_system::diagnose(const std::exception& e) const {
    failure_diagnosis f;
    if (const auto* sim = dynamic_cast<const simulation_error*>(&e)) {
        f.retryable = true;
        f.code = sim->code();
    } else if (dynamic_cast<const amt::fault::injected_fault*>(&e) != nullptr) {
        f.retryable = true;
        f.transient = true;
    }
    return f;
}

resilient_result run_resilient(resilient_system& sys,
                               const resilience_options& opt,
                               int max_cycles) {
    resilient_result rr;
    const auto t0 = std::chrono::steady_clock::now();
    const auto n = static_cast<std::size_t>(sys.num_slabs());
    const auto slab = [&sys](std::size_t i) -> domain& {
        return sys.slab(static_cast<index_t>(i));
    };

    // Per-slab rings of the newest committed record and one fallback
    // (record_hook applied), plus the pristine pre-hook entry records — the
    // fallback of last resort.  A commit rewrites each slab's mirror with
    // its ring's records, slab by slab: a crash between two rewrites still
    // leaves a cycle every file holds, which the loaders restore.
    std::vector<record_ring> rings(n);
    std::vector<std::string> entry(n);
    std::vector<std::string> contexts(n);
    const auto commit = [&](std::size_t i, int cycle, std::string rec) {
        if (opt.record_hook) opt.record_hook(static_cast<index_t>(i), rec);
        rings[i].commit(cycle, std::move(rec));
        if (!opt.checkpoint_path.empty()) {
            write_chain_file(
                sys.mirror_path(opt.checkpoint_path, static_cast<index_t>(i)),
                rings[i].records());
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        contexts[i] = "in-memory ring of slab " + std::to_string(i);
        entry[i] = pack_full_record(slab(i));
        commit(i, slab(i).cycle, entry[i]);
    }

    // Per-slab captures whose packing may still be overlapped with the next
    // cycle.  They are finalized — the rest packed, waited for, record_hook
    // run, records committed in slab order — before the next checkpoint,
    // before a rollback touches a slab, and before this function returns.
    // The rings stay in lockstep: if any slab's pack faulted, the whole
    // checkpoint is dropped, so every ring still holds the same cycles.
    std::vector<std::shared_ptr<state_capture>> pending(n);
    const auto finalize_pending = [&] {
        if (pending[0] == nullptr) return;
        auto caps = std::exchange(pending, decltype(pending)(n));
        bool failed = false;
        for (const auto& cap : caps) {
            cap->pack_remaining();
            cap->wait_packed();
            failed = failed || cap->failed();
        }
        if (failed) return;
        for (std::size_t i = 0; i < n; ++i) {
            commit(i, caps[i]->cycle(), caps[i]->take_record());
        }
    };

    // Whatever way this function exits, no pack task may outlive it with a
    // dangling slab reference: claim and finish every in-flight capture.
    struct quiesce_guard {
        std::vector<std::shared_ptr<state_capture>>* p;
        ~quiesce_guard() {
            for (const auto& cap : *p) {
                if (cap == nullptr) continue;
                cap->pack_remaining();
                cap->wait_packed();
            }
        }
    } quiesce{&pending};

    // Commits what finished packing, lets the system repair what the
    // failure broke, then restores every slab to the newest cycle every
    // ring holds a valid record of.  If none qualifies, every slab restores
    // its pristine entry snapshot and the rings restart from it — losing
    // history, not correctness.  Returns the restored cycle.
    const auto rollback = [&](const failure_diagnosis& failure) -> int {
        finalize_pending();  // before the hook may replace a slab
        sys.before_rollback(failure);
        if (failure.slab >= 0) ++rr.slab_rebuilds;
        std::vector<domain*> domains(n);
        for (std::size_t i = 0; i < n; ++i) domains[i] = &slab(i);
        try {
            return restore_common_cycle(domains, rings, contexts);
        } catch (const checkpoint_error&) {
            // No cycle is valid in every ring.
        }
        ++rr.entry_fallbacks;
        amt::resilience().entry_fallbacks.add(1);
        amt::trace::mark("entry_fallback", 0);
        for (std::size_t i = 0; i < n; ++i) {
            apply_chain_record(*domains[i], entry[i], "entry snapshot");
            rings[i] = record_ring{};
            rings[i].commit(domains[i]->cycle, entry[i]);
        }
        return domains[0]->cycle;
    };

    int incident_cycle = -1;  // failing cycle of the open incident, or -1
    int attempts = 0;         // recoveries spent on the open incident

    while (slab(0).time_ < slab(0).stoptime && slab(0).cycle < max_cycles) {
        for (std::size_t i = 0; i < n; ++i) kernels::time_increment(slab(i));
        amt::fault::set_epoch(slab(0).cycle);
        const int this_cycle = slab(0).cycle;
        const real_t this_dt = slab(0).deltatime;

        try {
            sys.advance();
        } catch (const std::exception& e) {
            const failure_diagnosis failure = sys.diagnose(e);
            if (!failure.retryable) throw;
            if (this_cycle == incident_cycle) {
                ++attempts;
            } else {
                incident_cycle = this_cycle;
                attempts = 1;
            }
            if (attempts > opt.max_recoveries) {
                // Budget exhausted: end with the status the plain loop maps
                // this failure to, and leave the caller the last good state,
                // not the torn fields of the failed iteration.
                rr.result.run_status = failure.code;
                rr.result.error_message = describe_failure(
                    e.what(), this_cycle, this_dt, attempts - 1);
                rr.last_rollback_cycle = rollback(failure);
                break;
            }

            ++rr.recoveries;
            amt::resilience().recoveries.add(1);
            amt::trace::scoped_span recovery(
                amt::trace::event_kind::checkpoint_span, "recovery",
                static_cast<std::int32_t>(failure.slab));
            rr.last_rollback_cycle = rollback(failure);
            // A transient fault's first replay runs at the unchanged dt
            // (bitwise-identical recovery).  Repeat failures of the same
            // cycle and deterministic physics failures halve it — an
            // unchanged replay would fail identically.
            if (!failure.transient || attempts >= 2) {
                for (std::size_t i = 0; i < n; ++i) {
                    slab(i).deltatime *= real_t(0.5);
                }
                ++rr.dt_halvings;
            }
            continue;
        }

        if (incident_cycle >= 0 && this_cycle > incident_cycle) {
            incident_cycle = -1;
            attempts = 0;
        }
        if (opt.checkpoint_every > 0 &&
            this_cycle % opt.checkpoint_every == 0) {
            // Every slab's capture is a whole state, committed in lockstep
            // — which is what makes a cycle one ring holds a cycle every
            // ring holds.  Each capture reuses the buffer its ring retired
            // and is packed by the next cycle's tasks where the driver
            // accepts it, else here.
            finalize_pending();
            for (std::size_t i = 0; i < n; ++i) {
                pending[i] = std::make_shared<state_capture>(
                    slab(i), rings[i].take_spare());
                if (!sys.submit_capture(static_cast<index_t>(i),
                                        pending[i])) {
                    pending[i]->pack_remaining();
                }
            }
            ++rr.checkpoints;
        }
    }

    finalize_pending();
    finish(rr.result, slab(0), t0);
    return rr;
}

resilient_result run_resilient(domain& d, driver& drv,
                               const resilience_options& opt,
                               int max_cycles) {
    domain_system sys(d, drv);
    return run_resilient(sys, opt, max_cycles);
}

run_result run_simulation(resilient_system& sys, int max_cycles) {
    run_result result;
    const auto t0 = std::chrono::steady_clock::now();
    const index_t n = sys.num_slabs();
    try {
        while (sys.slab(0).time_ < sys.slab(0).stoptime &&
               sys.slab(0).cycle < max_cycles) {
            for (index_t i = 0; i < n; ++i) {
                kernels::time_increment(sys.slab(i));
            }
            // Publish the cycle being computed so an epoch-targeted fault
            // plan fires in exactly one deterministic iteration.
            amt::fault::set_epoch(sys.slab(0).cycle);
            sys.advance();
        }
    } catch (const std::exception& e) {
        const failure_diagnosis failure = sys.diagnose(e);
        if (!failure.retryable) throw;
        result.run_status = failure.code;
        result.error_message = describe_failure(e.what(), sys.slab(0).cycle,
                                                sys.slab(0).deltatime);
    }
    finish(result, sys.slab(0), t0);
    return result;
}

run_result run_simulation(domain& d, driver& drv, int max_cycles) {
    domain_system sys(d, drv);
    return run_simulation(sys, max_cycles);
}

}  // namespace lulesh
