// dist/resilient_dist.cpp — coordinated rollback-and-replay for clusters.

#include "dist/resilient_dist.hpp"

#include <algorithm>
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

/// One committed record plus the cycle it was captured at.  The cycle is
/// cached at capture time because the record bytes may be corrupted later
/// (the record_hook test seam, bit rot) — the rollback target computation
/// must not depend on re-parsing possibly-bad headers.
struct chain_entry {
    int cycle = 0;
    std::string record;
};

}  // namespace

dist_resilient_result run_resilient(cluster& c, dist_driver& drv,
                                    const dist_resilience_options& opt,
                                    int max_cycles) {
    dist_resilient_result rr;
    const auto t0 = std::chrono::steady_clock::now();
    const auto n = static_cast<std::size_t>(c.num_slabs());

    // Per-slab in-memory chains (entry base + deltas, record_hook applied),
    // plus the pristine pre-hook entry bases — the fallback of last resort.
    std::vector<std::vector<chain_entry>> chains(n);
    std::vector<std::string> entry_base(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<index_t>(i);
        entry_base[i] = pack_full_record(c.slab(s), /*base=*/true);
        std::string rec = entry_base[i];
        if (opt.record_hook) opt.record_hook(s, rec);
        chains[i].push_back({c.slab(s).cycle, std::move(rec)});
        if (!opt.checkpoint_path.empty()) {
            write_chain_file(slab_chain_path(opt.checkpoint_path, s),
                             {chains[i].back().record});
        }
    }

    // Per-slab captures whose packing may still be overlapped with the next
    // cycle (dist_driver::submit_overlapped_capture).  They are finalized —
    // the rest packed, waited for, record_hook run, records committed in
    // slab order — before the next checkpoint, before any rebuild_slab or
    // rollback touches a slab, and before this function returns, exactly
    // like finalize_pending in lulesh/resilient_run.cpp.  The chains stay
    // in lockstep: if any slab's pack faulted, the whole checkpoint is
    // dropped, so every chain head is still a cycle every chain holds.
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
            const auto s = static_cast<index_t>(i);
            std::string rec = caps[i]->take_record();
            if (opt.record_hook) opt.record_hook(s, rec);
            chains[i].push_back({caps[i]->cycle(), std::move(rec)});
            if (!opt.checkpoint_path.empty()) {
                append_chain_record_file(
                    slab_chain_path(opt.checkpoint_path, s),
                    chains[i].back().record);
            }
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

    // Consistent-cycle rollback over the in-memory chains: restore every
    // slab to the newest cycle every chain holds (the on-disk loader's rule
    // — see load_cluster_chains).  A corrupt delta truncates its chain and
    // lowers the target for everyone; a corrupt base abandons the chains
    // and restores the pristine entry snapshot.  Returns the restored
    // cycle.
    const auto rollback = [&]() -> int {
        finalize_pending();
        for (;;) {
            int target = chains[0].back().cycle;
            for (std::size_t i = 1; i < n; ++i) {
                target = std::min(target, chains[i].back().cycle);
            }
            bool truncated = false;
            bool base_corrupt = false;
            for (std::size_t i = 0; i < n && !truncated; ++i) {
                for (std::size_t j = 0; j < chains[i].size(); ++j) {
                    if (chains[i][j].cycle > target) break;
                    try {
                        apply_chain_record(c.slab(static_cast<index_t>(i)),
                                           chains[i][j].record,
                                           "in-memory cluster chain");
                    } catch (const checkpoint_error&) {
                        if (j == 0) {
                            base_corrupt = true;
                        } else {
                            chains[i].resize(j);
                        }
                        truncated = true;
                        break;
                    }
                }
            }
            if (base_corrupt) {
                // The whole chain of some slab is unusable.  Restore every
                // slab from its pristine entry capture and reset the chains
                // — losing history, not correctness.
                ++rr.entry_fallbacks;
                amt::trace::mark("dist:entry_fallback", 0);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto s = static_cast<index_t>(i);
                    apply_chain_record(c.slab(s), entry_base[i],
                                       "entry snapshot");
                    chains[i].assign(1, {c.slab(s).cycle, entry_base[i]});
                }
                amt::resilience().entry_fallbacks.add(1);
                return c.slab(0).cycle;
            }
            if (!truncated) return target;
        }
    };

    // Record buffers for the checkpoint the current cycle ends with, filled
    // by tasks running alongside its advance.  The chains keep every
    // record, so each checkpoint needs fresh memory; faulting its pages in
    // (648 of them per cycle for s=30 over four slabs) on a worker keeps
    // them off the main thread between cycles.  A failed cycle leaves them
    // for its replay.
    std::vector<amt::future<std::string>> fresh;

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
        const bool checkpoint_due = opt.checkpoint_every > 0 &&
                                    this_cycle % opt.checkpoint_every == 0;
        if (checkpoint_due && fresh.empty()) {
            for (std::size_t i = 0; i < n; ++i) {
                // A full-coverage delta has the entry base record's size.
                // Reserved here, so the chains' memory keeps coming from
                // this thread's malloc arena; first touched by the task.
                const std::size_t bytes = entry_base[i].size();
                std::string buf;
                buf.reserve(bytes);
                fresh.push_back(amt::async(
                    drv.runtime(), [buf = std::move(buf), bytes]() mutable {
                        buf.resize(bytes);
                        return std::move(buf);
                    }));
            }
        }

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
                // rollback below restores it from its chain.
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
        if (checkpoint_due) {
            // The dist layer's deltas are conservative full-coverage
            // captures (see dist/checkpoint_dist.hpp), appended in lockstep
            // — which is what makes the consistent-cycle minimum a cycle
            // every chain actually holds.  Each slab's capture is packed by
            // the next cycle's tasks where the driver accepts it, else here.
            finalize_pending();
            for (std::size_t i = 0; i < n; ++i) {
                const auto s = static_cast<index_t>(i);
                pending[i] = std::make_shared<state_capture>(
                    c.slab(s), full_coverage(c.slab(s)), /*base=*/false,
                    fresh[i].get());
                if (!drv.submit_overlapped_capture(s, pending[i])) {
                    pending[i]->pack_remaining();
                }
            }
            fresh.clear();
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
