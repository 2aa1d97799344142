// lulesh/resilient_run.cpp — rollback-and-retry iteration loop over an
// incremental checkpoint chain.

#include "lulesh/resilient_run.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

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

    // The in-memory chain: a base record followed by committed deltas.
    // Rollback replays the longest valid prefix, so "fall back to the
    // previous snapshot" is simply dropping a corrupt tail.
    std::vector<std::string> chain;
    dirty_tracker dirty;

    // Retired record buffers, recycled into new captures.  Every re-base
    // frees a chain's worth of large allocations; without reuse each
    // capture faults in fresh pages (the chain keeps the old ones alive),
    // which at checkpoint-every-1 costs more than the packing itself.
    std::vector<std::string> spare;
    const auto spare_buffer = [&]() -> std::string {
        if (spare.empty()) return {};
        std::string buf = std::move(spare.back());
        spare.pop_back();
        return buf;
    };
    const auto retire = [&](std::vector<std::string>&& old) {
        for (std::string& s : old) spare.push_back(std::move(s));
        old.clear();
    };

    // The capture whose packing may still be overlapped with compute.  Its
    // record is appended (and the snapshot hook run) when the next
    // checkpoint is due, on rollback, or at loop exit — always before the
    // domain is mutated by anything but the driver itself.
    std::shared_ptr<state_capture> pending;

    const auto sync_mirror = [&] {
        if (!opt.checkpoint_path.empty()) {
            write_chain_file(opt.checkpoint_path, chain);
        }
    };

    const auto finalize_pending = [&] {
        if (!pending) return;
        auto cap = std::move(pending);
        cap->pack_remaining();
        cap->wait_packed();
        if (cap->failed()) {
            // A pack task faulted: drop the capture, but hand its regions
            // back to the tracker so the next delta still covers them.
            for (std::size_t i = 0; i < cap->num_regions(); ++i) {
                const dirty_region& r = cap->region(i);
                dirty.mark(r.f, r.lo, r.hi);
            }
            return;
        }
        std::string rec = cap->take_record();
        if (opt.snapshot_hook) opt.snapshot_hook(rec);
        if (cap->is_base()) retire(std::move(chain));
        const bool rewrite = cap->is_base();
        chain.push_back(std::move(rec));
        if (!opt.checkpoint_path.empty()) {
            if (rewrite) {
                write_chain_file(opt.checkpoint_path, chain);
            } else {
                append_chain_record_file(opt.checkpoint_path, chain.back());
            }
        }
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

    // Entry snapshot: the chain's first base record (not counted in
    // rr.checkpoints).  With checkpoint_every <= 0 this stays the only
    // record — still enough to recover, just a full replay.
    {
        std::string rec = pack_full_record(d, /*base=*/true);
        if (opt.snapshot_hook) opt.snapshot_hook(rec);
        chain.push_back(std::move(rec));
        sync_mirror();
    }

    const auto rollback = [&](domain& dom) {
        finalize_pending();
        std::size_t applied = 0;
        try {
            for (const std::string& rec : chain) {
                apply_chain_record(dom, rec, "in-memory checkpoint chain");
                ++applied;
            }
        } catch (const checkpoint_error&) {
            // A corrupt record ends the usable prefix.  If not even the
            // base applies there is nothing valid left — propagate.
            if (applied == 0) throw;
        }
        if (applied < chain.size()) {
            // Drop the corrupt tail so later retries don't re-trip on it,
            // and from the file mirror so a restart can't either.
            chain.resize(applied);
            ++rr.snapshot_fallbacks;
            sync_mirror();
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
                rollback(d);
                break;
            }

            rollback(d);
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
        if (opt.checkpoint_every > 0) {
            drv.record_dirty(dirty, d);
            if (d.cycle % opt.checkpoint_every == 0) {
                finalize_pending();
                // Re-base periodically so the chain (and every replay)
                // stays bounded; otherwise append a delta of the regions
                // dirtied since the last capture.
                const bool base =
                    chain.empty() ||
                    (opt.rebase_every > 0 &&
                     static_cast<int>(chain.size()) >= opt.rebase_every);
                pending = std::make_shared<state_capture>(
                    d, base ? full_coverage(d) : dirty.take(d), base,
                    spare_buffer());
                if (base) dirty.clear();
                if (!opt.overlap_packing ||
                    !drv.submit_overlapped_capture(pending)) {
                    pending->pack_remaining();
                }
                ++rr.checkpoints;
            }
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
