// lulesh/resilient_run.cpp — rollback-and-retry iteration loop over a
// two-record checkpoint ring.

#include "lulesh/resilient_run.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "amt/fault.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {

namespace {

std::string describe_failure(const char* what, int cycle, real_t dt,
                             int retries) {
    std::ostringstream os;
    os << what << " (cycle " << cycle << ", dt " << dt << "; " << retries
       << " retries exhausted)";
    return os.str();
}

}  // namespace

resilient_result run_resilient(domain& d, driver& drv,
                               const resilience_options& opt,
                               int max_cycles) {
    resilient_result rr;
    const auto t0 = std::chrono::steady_clock::now();

    // The newest committed record and one fallback, mirrored whole to the
    // file at every commit.
    record_ring ring;
    const auto sync_mirror = [&] {
        if (!opt.checkpoint_path.empty()) {
            write_chain_file(opt.checkpoint_path, ring.records());
        }
    };
    const auto commit = [&](int cycle, std::string rec) {
        if (opt.snapshot_hook) opt.snapshot_hook(rec);
        ring.commit(cycle, std::move(rec));
        sync_mirror();
    };

    // The capture whose packing may still be overlapped with compute.  It
    // is committed when the next checkpoint is due, on rollback, or at loop
    // exit — always before the domain is mutated by anything but the
    // driver itself.  A capture whose pack task faulted is dropped; the
    // ring still holds the previous records.
    std::shared_ptr<state_capture> pending;
    const auto finalize_pending = [&] {
        if (!pending) return;
        auto cap = std::move(pending);
        cap->pack_remaining();
        cap->wait_packed();
        if (!cap->failed()) commit(cap->cycle(), cap->take_record());
    };

    // Whatever way this function exits, no pack task may outlive it with a
    // dangling domain reference: claim and finish any in-flight capture.
    struct quiesce_guard {
        std::shared_ptr<state_capture>* p;
        ~quiesce_guard() {
            if (*p != nullptr) {
                (*p)->pack_remaining();
                (*p)->wait_packed();
            }
        }
    } quiesce{&pending};

    // Entry snapshot (not counted in rr.checkpoints).  With
    // checkpoint_every <= 0 this stays the only record — still enough to
    // recover, just a full replay.
    commit(d.cycle, pack_full_record(d, /*base=*/true));

    // Restores the newest record.  One that fails validation is dropped —
    // from the mirror too, so a restart cannot trip on it — and the
    // fallback restored; with no valid record left the checkpoint_error
    // propagates.
    const auto rollback = [&] {
        finalize_pending();
        for (;;) {
            try {
                ring.restore(d, ring.cycles().back(),
                             "in-memory checkpoint ring");
                return;
            } catch (const checkpoint_error&) {
                if (ring.records().empty()) throw;
                ++rr.snapshot_fallbacks;
                sync_mirror();
            }
        }
    };

    int incident_cycle = -1;  // failing cycle of the open incident, or -1
    int retries = 0;          // retries spent on the open incident

    while (d.time_ < d.stoptime && d.cycle < max_cycles) {
        kernels::time_increment(d);
        amt::fault::set_epoch(d.cycle);
        const int this_cycle = d.cycle;
        const real_t this_dt = d.deltatime;

        try {
            drv.advance(d);
        } catch (const std::exception& e) {
            const auto* sim = dynamic_cast<const simulation_error*>(&e);
            const bool injected =
                dynamic_cast<const amt::fault::injected_fault*>(&e) != nullptr;
            if (sim == nullptr && !injected) throw;  // not retryable

            ++rr.rollbacks;
            if (this_cycle == incident_cycle) {
                ++retries;
            } else {
                incident_cycle = this_cycle;
                retries = 1;
            }
            if (retries > opt.max_retries) {
                rr.result.run_status =
                    injected ? status::task_fault : sim->code();
                rr.result.error_message =
                    describe_failure(e.what(), this_cycle, this_dt, retries - 1);
                // Leave the caller the last *good* state, not the torn
                // fields of the failed iteration.
                rollback();
                break;
            }

            rollback();
            // A transient fault's first retry replays at the unchanged dt
            // (bitwise-identical recovery); deterministic physics failures
            // and repeat failures halve it — replaying those unchanged
            // would fail identically.
            if (!injected || retries >= 2) {
                d.deltatime *= real_t(0.5);
                ++rr.dt_halvings;
            }
            continue;
        }

        if (incident_cycle >= 0 && d.cycle > incident_cycle) {
            incident_cycle = -1;
            retries = 0;
        }
        if (opt.checkpoint_every > 0 && d.cycle % opt.checkpoint_every == 0) {
            finalize_pending();
            pending = std::make_shared<state_capture>(
                d, full_coverage(d), /*base=*/true, ring.take_spare());
            if (!drv.submit_overlapped_capture(pending)) {
                pending->pack_remaining();
            }
            ++rr.checkpoints;
        }
    }

    finalize_pending();

    const auto t1 = std::chrono::steady_clock::now();
    rr.result.cycles = d.cycle;
    rr.result.final_time = d.time_;
    rr.result.final_dt = d.deltatime;
    rr.result.final_origin_energy = d.e[0];
    rr.result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
    return rr;
}

}  // namespace lulesh
