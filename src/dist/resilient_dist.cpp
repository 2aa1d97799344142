// dist/resilient_dist.cpp — coordinated rollback-and-replay for clusters.

#include "dist/resilient_dist.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "amt/amt.hpp"
#include "dist/checkpoint_dist.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh::dist {

namespace {

std::string describe_failure(const char* what, int cycle, real_t dt,
                             int recoveries) {
    std::ostringstream os;
    os << what << " (cycle " << cycle << ", dt " << dt << "; " << recoveries
       << " recoveries exhausted)";
    return os.str();
}

}  // namespace

dist_resilient_result run_resilient(cluster& c, dist_driver& drv,
                                    const dist_resilience_options& opt,
                                    int max_cycles) {
    dist_resilient_result rr;
    const auto t0 = std::chrono::steady_clock::now();
    const auto n = static_cast<std::size_t>(c.num_slabs());

    // Per-slab rings of the newest committed record and one fallback
    // (record_hook applied), plus the pristine pre-hook entry records — the
    // fallback of last resort.  A commit rewrites each slab's mirror with
    // its ring's records, slab by slab: a crash between two rewrites still
    // leaves a cycle both files hold, which load_cluster_chains restores.
    std::vector<record_ring> rings(n);
    std::vector<std::string> entry_base(n);
    const auto commit = [&](std::size_t i, int cycle, std::string rec) {
        const auto s = static_cast<index_t>(i);
        if (opt.record_hook) opt.record_hook(s, rec);
        rings[i].commit(cycle, std::move(rec));
        if (!opt.checkpoint_path.empty()) {
            write_chain_file(slab_chain_path(opt.checkpoint_path, s),
                             rings[i].records());
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        const domain& slab = c.slab(static_cast<index_t>(i));
        entry_base[i] = pack_full_record(slab, /*base=*/true);
        commit(i, slab.cycle, entry_base[i]);
    }

    // Per-slab captures whose packing may still be overlapped with the next
    // cycle (dist_driver::submit_overlapped_capture).  They are finalized —
    // the rest packed, waited for, record_hook run, records committed in
    // slab order — before the next checkpoint, before any rebuild_slab or
    // rollback touches a slab, and before this function returns, exactly
    // like finalize_pending in lulesh/resilient_run.cpp.  The rings stay
    // in lockstep: if any slab's pack faulted, the whole checkpoint is
    // dropped, so every ring still holds the same cycles.
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

    // Consistent-cycle rollback over the rings: every slab restores the
    // newest cycle every ring holds a valid record of, else the fallback
    // (the on-disk loader's rule — see load_cluster_chains).  restore()
    // drops a record that fails validation, which rules its cycle out for
    // everyone, and drops the records past the restored cycle.  If no
    // cycle qualifies, every slab restores its pristine entry snapshot.
    // Returns the restored cycle.
    const auto rollback = [&]() -> int {
        finalize_pending();
        // A copy: restore() drops records from the rings as it goes.
        const std::vector<int> cycles = rings[0].cycles();
        for (auto it = cycles.rbegin(); it != cycles.rend(); ++it) {
            try {
                for (std::size_t i = 0; i < n; ++i) {
                    rings[i].restore(c.slab(static_cast<index_t>(i)), *it,
                                     "in-memory cluster ring");
                }
                return *it;
            } catch (const checkpoint_error&) {
                // Some slab lacks a valid record of this cycle.
            }
        }
        // No cycle qualifies: restore every slab from its pristine entry
        // capture and reset the rings — losing history, not correctness.
        ++rr.entry_fallbacks;
        amt::trace::mark("dist:entry_fallback", 0);
        for (std::size_t i = 0; i < n; ++i) {
            domain& slab = c.slab(static_cast<index_t>(i));
            apply_chain_record(slab, entry_base[i], "entry snapshot");
            rings[i] = record_ring{};
            rings[i].commit(slab.cycle, entry_base[i]);
        }
        amt::resilience().entry_fallbacks.add(1);
        return c.slab(0).cycle;
    };

    int incident_cycle = -1;  // failing cycle of the open incident, or -1
    int attempts = 0;         // recoveries spent on the open incident

    while (c.slab(0).time_ < c.slab(0).stoptime &&
           c.slab(0).cycle < max_cycles) {
        for (index_t s = 0; s < c.num_slabs(); ++s) {
            kernels::time_increment(c.slab(s));
        }
        amt::fault::set_epoch(c.slab(0).cycle);
        const int this_cycle = c.slab(0).cycle;
        const real_t this_dt = c.slab(0).deltatime;

        try {
            drv.advance(c);
        } catch (const std::exception& e) {
            const auto* sim = dynamic_cast<const simulation_error*>(&e);
            const bool injected =
                dynamic_cast<const amt::fault::injected_fault*>(&e) != nullptr;
            const bool cascade =
                dynamic_cast<const amt::channel_closed*>(&e) != nullptr;
            if (sim == nullptr && !injected && !cascade) throw;

            const slab_failure failure = drv.last_failure();
            if (this_cycle == incident_cycle) {
                ++attempts;
            } else {
                incident_cycle = this_cycle;
                attempts = 1;
            }
            if (attempts > opt.max_recoveries) {
                // Budget exhausted: degrade to exactly the status (and
                // process exit code) the fail-stop path maps this failure
                // to — stalled peers, injected faults, physics errors all
                // keep their established codes.
                status code = status::task_fault;
                if (failure.code != status::ok) {
                    code = failure.transient ? status::task_fault
                                             : failure.code;
                } else if (sim != nullptr) {
                    code = sim->code();
                } else if (cascade) {
                    code = status::stalled;
                }
                rr.result.run_status = code;
                rr.result.error_message = describe_failure(
                    e.what(), this_cycle, this_dt, attempts - 1);
                c.reopen_channels();  // quiescent; make the state inspectable
                rr.last_rollback_cycle = rollback();  // last good state
                break;
            }

            ++rr.recoveries;
            amt::resilience().recoveries.add(1);
            amt::trace::scoped_span recovery(
                amt::trace::event_kind::checkpoint_span, "dist:recovery",
                static_cast<std::int32_t>(failure.slab));
            finalize_pending();  // its packs read the slab rebuilt below
            if (failure.slab >= 0) {
                // The driver named a dead slab: rebuild its domain from
                // scratch (the old memory is presumed lost/poisoned); the
                // rollback below restores it from its ring.
                c.rebuild_slab(failure.slab);
                ++rr.slab_rebuilds;
                amt::trace::mark("dist:slab_rebuild",
                                 static_cast<std::int32_t>(failure.slab));
            }
            c.reopen_channels();
            rr.last_rollback_cycle = rollback();
            // A transient fault's first replay runs at the unchanged dt
            // (bitwise-identical recovery).  Repeat failures of the same
            // cycle and deterministic physics failures halve it — an
            // unchanged replay would fail identically.
            if (!(failure.transient || injected) || attempts >= 2) {
                for (index_t s = 0; s < c.num_slabs(); ++s) {
                    c.slab(s).deltatime *= real_t(0.5);
                }
                ++rr.dt_halvings;
            }
            continue;
        }

        if (incident_cycle >= 0 && c.slab(0).cycle > incident_cycle) {
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
                const auto s = static_cast<index_t>(i);
                pending[i] = std::make_shared<state_capture>(
                    c.slab(s), full_coverage(c.slab(s)), /*base=*/true,
                    rings[i].take_spare());
                if (!drv.submit_overlapped_capture(s, pending[i])) {
                    pending[i]->pack_remaining();
                }
            }
            ++rr.checkpoints;
        }
    }

    finalize_pending();

    const auto t1 = std::chrono::steady_clock::now();
    rr.result.cycles = c.slab(0).cycle;
    rr.result.final_time = c.slab(0).time_;
    rr.result.final_dt = c.slab(0).deltatime;
    rr.result.final_origin_energy = c.slab(0).e[0];
    rr.result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
    return rr;
}

}  // namespace lulesh::dist
