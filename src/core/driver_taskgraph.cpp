// core/driver_taskgraph.cpp — the many-task leapfrog iteration, built from
// the shared wave builders in graph_waves and chained through non-blocking
// when_all barriers with stage-spawner continuations.

#include "core/driver_taskgraph.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amt/hazard.hpp"
#include "core/access.hpp"
#include "core/graph_waves.hpp"
#include "core/stage.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace lulesh {

namespace {

using clock_t_ = std::chrono::steady_clock;

/// Stamps the completion instant of a barrier future (runs inline on the
/// completing worker) and forwards readiness.
amt::future<void> stamp(amt::future<void> f, clock_t_::time_point* out) {
    return f.then(amt::launch::sync, [out](amt::future<void>&& g) {
        g.get();
        *out = clock_t_::now();
    });
}

bool env_enabled(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// The replay-mode pack tasks: plain posted tasks running the shared
/// graph::pack_region_task body (no futures — the compiled graph's B1/B3
/// are gated on them through external dependencies instead).  Each task's
/// LAST action on every path is comp->pack_done(), which satisfies one
/// external dependency; the graph cannot finish the gated barrier — and the
/// driver cannot destroy or recompile `comp` — before every pack task got
/// there.
void spawn_pack_tasks_replay(amt::runtime& rt,
                             const std::shared_ptr<lulesh::state_capture>& cap,
                             const graph::error_flags& flags,
                             graph::compiled_iteration* comp) {
    for (std::size_t i = 0; i < cap->num_regions(); ++i) {
        const space sp = field_space(cap->region(i).f);
        rt.post_fn([cap, i, sp, comp, progress = flags.progress] {
            graph::pack_region_task(*cap, i, *progress);
            comp->pack_done(sp);
        });
    }
}

}  // namespace

void taskgraph_driver::enable_instrumentation(bool track_hazards,
                                              bool scan_nan) {
    instrumentation_checked_ = true;
    if (!track_hazards && !scan_nan) {
        flags_.sentinel.reset();
        return;
    }
    if (!flags_.sentinel) {
        flags_.sentinel = std::make_shared<graph::iteration_sentinel>();
    }
    flags_.sentinel->track_hazards = track_hazards && amt::hazard::compiled_in;
    flags_.sentinel->scan_nan = scan_nan;
}

void taskgraph_driver::prepare_instrumentation(domain& d) {
    if (!instrumentation_checked_) {
        // Environment opt-in, resolved once: AMT_HAZARD_TRACK also arms the
        // generic tracker at process start (amt/hazard.cpp), so armed()
        // reflects it here.
        enable_instrumentation(amt::hazard::armed(),
                               env_enabled("LULESH_NAN_SCAN"));
    }
    auto& sent = flags_.sentinel;
    if (!sent) return;
    sent->dom = &d;
    if (sent->track_hazards && hazard_arena_for_ != &d) {
        amt::hazard::bind_arena(
            &d, graph::arena_extents(
                    d, graph::constraint_slot_count(d, parts_.elems)));
        hazard_arena_for_ = &d;
    }
}

void taskgraph_driver::advance(domain& d) {
    if (mode_ == graph_mode::replay) {
        advance_replay(d);
    } else {
        advance_build(d);
    }
}

void taskgraph_driver::advance_build(domain& d) {
    namespace k = kernels;
    const real_t dt = d.deltatime;
    const index_t p_nodal = parts_.nodal;
    const index_t p_elems = parts_.elems;

    prepare_instrumentation(d);

    // Fresh cancellation scope for this iteration; the progress tracker
    // object survives so an external watchdog keeps observing it.  Copies
    // of error_flags share state, so capturing `flags` by value below is
    // aliasing, not snapshotting.
    flags_.begin_iteration();
    graph::error_flags flags = flags_;
    auto counter = std::make_shared<amt::atomic<std::size_t>>(0);
    domain* dp = &d;
    amt::runtime* rt = &rt_;

    const auto t0 = clock_t_::now();
    amt::trace::mark("cycle", d.cycle);
    std::array<clock_t_::time_point, phase_profile::num_phases> stamps{};

    // Wave 1 spawned directly; waves 2-5 spawned by continuation stages so
    // the whole iteration flows asynchronously and the driver blocks exactly
    // once, at the end.
    auto w1 = graph::spawn_force_wave(rt_, d, p_nodal, flags);
    counter->fetch_add(w1.tasks, amt::memory_order_relaxed);

    // Overlapped checkpoint packing: a capture handed over by the resilient
    // loop (the previous iteration's state) is packed by ordinary graph
    // tasks running concurrently with this iteration's compute.  Node-field
    // packs join B1 — wave 1 writes only corner force fields — so they
    // finish before the node wave writes x..zd; element-field packs join B3
    // (waves 1-3 write no checkpointed element field).
    // add_checkpoint_pack_tasks models exactly this placement, so the graph
    // audit is the proof the overlap cannot race.
    std::vector<amt::future<void>> elem_packs;
    if (std::shared_ptr<state_capture> cap = std::move(pending_capture_)) {
        if (cap->source() == &d) {
            const std::size_t n = graph::spawn_pack_tasks(
                rt_, cap, flags, w1.futures, elem_packs);
            counter->fetch_add(n, amt::memory_order_relaxed);
        } else {
            cap->pack_remaining();  // different domain: pack on the spot
        }
    }

    auto b1 = stamp(amt::when_all_void(std::move(w1.futures)),
                    &stamps[phase_profile::force]);

    auto b2 = stamp(
        graph::stage_after(std::move(b1),
                           [rt, dp, p_nodal, dt, flags, counter] {
                               auto w = graph::spawn_node_wave(*rt, *dp,
                                                               p_nodal, dt,
                                                               flags);
                               counter->fetch_add(w.tasks,
                                                  amt::memory_order_relaxed);
                               return std::move(w.futures);
                           },
                           graph::wave_site::node),
        &stamps[phase_profile::node]);

    auto b3 = stamp(
        graph::stage_after(std::move(b2),
                           [rt, dp, p_elems, dt, flags, counter] {
                               auto w = graph::spawn_elem_wave(*rt, *dp,
                                                               p_elems, dt,
                                                               flags);
                               counter->fetch_add(w.tasks,
                                                  amt::memory_order_relaxed);
                               return std::move(w.futures);
                           },
                           graph::wave_site::elem),
        &stamps[phase_profile::elem]);

    // Element-field packs must be complete before wave 4 writes e/p/q/ss/v:
    // fold them into the barrier the region wave is gated on.
    if (!elem_packs.empty()) {
        elem_packs.push_back(std::move(b3));
        b3 = amt::when_all_void(std::move(elem_packs));
    }

    auto b4 = stamp(
        graph::stage_after(std::move(b3),
                           [rt, dp, p_elems, flags, counter] {
                               auto w = graph::spawn_region_wave(*rt, *dp,
                                                                 p_elems,
                                                                 flags);
                               counter->fetch_add(w.tasks,
                                                  amt::memory_order_relaxed);
                               return std::move(w.futures);
                           },
                           graph::wave_site::region_eos),
        &stamps[phase_profile::region_eos]);

    constraint_partials_.assign(graph::constraint_slot_count(d, p_elems),
                                k::dt_constraints{});
    auto* partials = constraint_partials_.data();
    auto b5 = stamp(
        graph::stage_after(std::move(b4),
                           [rt, dp, p_elems, partials, flags, counter] {
                               auto w = graph::spawn_constraint_wave(
                                   *rt, *dp, p_elems, partials, flags);
                               counter->fetch_add(w.tasks,
                                                  amt::memory_order_relaxed);
                               return std::move(w.futures);
                           },
                           graph::wave_site::constraints),
        &stamps[phase_profile::constraints]);

    // The single blocking synchronization of the iteration.  On failure,
    // make sure the stop request is visible (guarded() already requested it
    // from the throwing task; a failure surfaced by the barrier machinery
    // itself would not have) before propagating the first exception.
    const bool tracing = amt::trace::enabled();
    const auto wait0 = tracing ? clock_t_::now() : clock_t_::time_point{};
    try {
        b5.get();
    } catch (...) {
        flags_.stop.request_stop();
        tasks_last_iteration_ = counter->load(amt::memory_order_relaxed);
        throw;
    }
    tasks_last_iteration_ = counter->load(amt::memory_order_relaxed);
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, clock_t_::now(),
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }

    finish_iteration(d, t0, stamps, constraint_partials_.data(),
                     constraint_partials_.size(), tracing);
}

void taskgraph_driver::advance_replay(domain& d) {
    const real_t dt = d.deltatime;
    prepare_instrumentation(d);

    graph::compiled_iteration::config cfg;
    cfg.parts = parts_;
    cfg.profile_nodes = profile_nodes_;
    if (flags_.sentinel) {
        cfg.track_hazards = flags_.sentinel->track_hazards;
        cfg.scan_nan = flags_.sentinel->scan_nan;
    }
    if (!compiled_ || !compiled_->matches(d, cfg, flags_)) {
        compiled_ = std::make_unique<graph::compiled_iteration>(rt_, d, cfg,
                                                                flags_);
    }

    // Fresh iteration scope without the fresh path's per-iteration
    // stop_source replacement: sibling short-circuiting lives in the
    // compiled graph's stop flag (cleared by every arm()), so the driver's
    // stop source only needs replacing when a previous iteration's failure
    // actually leaked a stop request into it.
    flags_.reset();
    if (flags_.stop.stop_requested()) flags_.stop = amt::stop_source();

    const auto t0 = clock_t_::now();
    amt::trace::mark("cycle", d.cycle);

    // Overlapped checkpoint packing (see advance_build): in replay form the
    // pack jobs are posted tasks gating B1/B3 through the graph's external
    // dependencies.  Count them per space BEFORE arm() so the barriers are
    // armed with the right gate counts.
    std::size_t node_packs = 0;
    std::size_t elem_packs = 0;
    std::shared_ptr<state_capture> cap = std::move(pending_capture_);
    if (cap != nullptr) {
        if (cap->source() == &d) {
            for (std::size_t i = 0; i < cap->num_regions(); ++i) {
                if (field_space(cap->region(i).f) == space::node) {
                    ++node_packs;
                } else {
                    ++elem_packs;
                }
            }
        } else {
            cap->pack_remaining();  // different domain: pack on the spot
            cap.reset();
        }
    }

    compiled_->set_pack_deps(node_packs, elem_packs);
    compiled_->arm(dt);
    if (cap != nullptr) {
        spawn_pack_tasks_replay(rt_, cap, flags_, compiled_.get());
    }
    tasks_last_iteration_ =
        compiled_->task_count() + node_packs + elem_packs;
    compiled_->start();

    const bool tracing = amt::trace::enabled();
    const auto wait0 = tracing ? clock_t_::now() : clock_t_::time_point{};
    try {
        compiled_->wait();
    } catch (...) {
        flags_.stop.request_stop();
        throw;
    }
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, clock_t_::now(),
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }

    finish_iteration(d, t0, compiled_->stamps(), compiled_->partials(),
                     compiled_->slot_count(), tracing);
}

void taskgraph_driver::finish_iteration(
    domain& d, amt::clock::time_point t0,
    const std::array<amt::clock::time_point,
                     phase_profile::num_phases>& stamps,
    const kernels::dt_constraints* partials, std::size_t num_slots,
    bool tracing) {
    namespace k = kernels;

    // Per-phase durations from the barrier-completion stamps.  The tracer
    // gets the same windows as retroactive phase spans (on a dedicated
    // pseudo-thread, so they cannot break nesting on this thread's
    // timeline) — the per-phase utilization report attributes worker time
    // to these windows.
    auto prev = t0;
    for (std::size_t ph = 0; ph < phase_profile::num_phases; ++ph) {
        profile_.seconds[ph] +=
            std::chrono::duration<double>(stamps[ph] - prev).count();
        if (tracing) {
            const std::int64_t b = amt::trace::to_ns(prev);
            const std::int64_t e = amt::trace::to_ns(stamps[ph]);
            amt::trace::emit_phase(phase_profile::name(ph), b, e - b,
                                   d.cycle);
        }
        prev = stamps[ph];
    }
    ++profile_.iterations;

    k::dt_constraints combined;
    for (std::size_t s = 0; s < num_slots; ++s) {
        combined = k::min_constraints(combined, partials[s]);
    }
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;

    if (!flags_.volume_ok->load(amt::memory_order_relaxed)) {
        throw simulation_error(status::volume_error,
                               "non-positive volume detected");
    }
    if (!flags_.qstop_ok->load(amt::memory_order_relaxed)) {
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
    }
    if (!flags_.nan_ok->load(amt::memory_order_relaxed)) {
        std::string msg = "non-finite field value detected";
        if (flags_.sentinel) {
            const char* site = flags_.sentinel->nan_wave_site.load(
                amt::memory_order_relaxed);
            const char* fname = flags_.sentinel->nan_field_name.load(
                amt::memory_order_relaxed);
            if (fname != nullptr) msg += std::string(" in ") + fname;
            if (site != nullptr) msg += std::string(" at wave ") + site;
        }
        throw simulation_error(status::data_corruption, msg);
    }
    if (flags_.sentinel && flags_.sentinel->track_hazards &&
        amt::hazard::violation_count() > 0) {
        const auto violations = amt::hazard::take_violations();
        throw simulation_error(status::hazard,
                               "shadow tracker: " + violations.front()
                                   .describe());
    }
}

void taskgraph_driver::record_dirty(dirty_tracker& t, const domain& d) const {
    if (write_set_elems_ != d.numElem() || write_set_nodes_ != d.numNode()) {
        // Derive once per shape: every write access of the declarative
        // model collapses to a per-field span.  Indirect (region-list) or
        // closure-expanded writes cover the whole field conservatively;
        // interval writes take the union of their [lo, hi) ranges.
        write_set_.clear();
        const graph::graph_model m = graph::build_iteration_model(d, parts_);
        std::array<std::pair<index_t, index_t>, num_checkpoint_fields> span;
        span.fill({std::numeric_limits<index_t>::max(), 0});
        for (const graph::task_decl& td : m.tasks) {
            for (const graph::access& a : td.accesses) {
                if (a.m != graph::mode::write) continue;
                const int slot = checkpoint_slot(a.f);
                if (slot < 0) continue;
                auto& s = span[static_cast<std::size_t>(slot)];
                if (a.list != nullptr || a.c != graph::closure::none) {
                    s = {0, static_cast<index_t>(graph::space_extent(
                                field_space(a.f), d, m.num_slots))};
                } else {
                    s.first = std::min(s.first, a.lo);
                    s.second = std::max(s.second, a.hi);
                }
            }
        }
        for (std::size_t i = 0; i < num_checkpoint_fields; ++i) {
            if (span[i].second > span[i].first) {
                write_set_.push_back({checkpoint_field_at(i), span[i].first,
                                      span[i].second});
            }
        }
        write_set_elems_ = d.numElem();
        write_set_nodes_ = d.numNode();
    }
    for (const dirty_region& r : write_set_) t.mark(r.f, r.lo, r.hi);
}

bool taskgraph_driver::submit_overlapped_capture(
    std::shared_ptr<state_capture> cap) {
    // Overlap only pays when a worker can pack while another computes; on
    // a single-worker runtime the pack tasks just interleave with compute
    // at a worse cache footprint, so decline and let the resilient loop
    // pack synchronously while the capture's source fields are still warm.
    if (rt_.num_workers() <= 1) return false;
    // Overwriting a leftover capture is safe: the resilient loop finalizes
    // (packs + commits) every capture before handing over the next one, so
    // a leftover here is already fully packed and its pack tasks, if any
    // still run, fail their claim CAS and no-op.
    pending_capture_ = std::move(cap);
    return true;
}

std::string audit_compiled_replay(const options& o, partition_sizes parts,
                                  std::size_t threads) {
    const std::size_t n =
        threads != 0 ? std::min<std::size_t>(threads, 8) : 4;
    domain d(o);
    amt::runtime rt(n);
    taskgraph_driver drv(rt, parts);
    // Two cycles so the graph has been armed at least twice: the audit then
    // exercises the re-armed form, not just the freshly compiled one.
    const run_result rr = run_simulation(d, drv, /*max_cycles=*/2);
    if (rr.run_status != status::ok) {
        return std::string("compiled-replay probe run failed: ") +
               status_name(rr.run_status);
    }
    if (drv.compiled() == nullptr) {
        return "driver did not compile a replay graph";
    }
    return drv.compiled()->verify(graph::build_iteration_model(d, parts));
}

}  // namespace lulesh
