// core/driver_taskgraph.cpp — the many-task leapfrog iteration: the
// iteration table compiled once into a static graph, re-armed and replayed
// every advance().

#include "core/driver_taskgraph.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amt/hazard.hpp"
#include "core/access.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace lulesh {

namespace {

bool env_enabled(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
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
    flags_.sentinel->track_hazards = track_hazards;
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
    const auto& sent = flags_.sentinel;
    if (sent && sent->track_hazards && hazard_arena_for_ != &d) {
        amt::hazard::bind_arena(
            &d, graph::arena_extents(
                    d, graph::constraint_slot_count(d, parts_.elems)));
        hazard_arena_for_ = &d;
    }
}

void taskgraph_driver::advance(domain& d) {
    namespace k = kernels;
    prepare_instrumentation(d);

    graph::compiled_iteration::config cfg;
    cfg.parts = parts_;
    if (flags_.sentinel) {
        cfg.track_hazards = flags_.sentinel->track_hazards;
        cfg.scan_nan = flags_.sentinel->scan_nan;
    }
    if (!compiled_ || !compiled_->matches(cfg, flags_, 1) ||
        !compiled_->shape_matches(0, d)) {
        std::vector<graph::compiled_iteration::slab_table> tables(1);
        tables[0] = {graph::build_iteration_table(d, parts_), &d};
        compiled_.reset();
        compiled_ = std::make_unique<graph::compiled_iteration>(
            rt_, std::move(tables), cfg, flags_);
    }
    compiled_->bind(0, d);
    flags_.reset();

    const auto t0 = amt::clock::now();
    amt::trace::mark("cycle", d.cycle);

    // Overlapped checkpoint packing: a capture handed over by the resilient
    // loop (the previous iteration's state) is packed by tasks running
    // concurrently with this iteration's compute, gating B1 (node fields),
    // B2 (v) and B3 (the other element fields) — the placement
    // add_checkpoint_pack_tasks models, so the graph audit is the proof the
    // overlap cannot race.
    std::size_t packs = 0;
    if (std::shared_ptr<state_capture> cap = std::move(pending_capture_)) {
        if (cap->source() == &d) {
            packs = cap->num_regions();
            compiled_->add_capture(0, std::move(cap));
        } else {
            cap->pack_remaining();  // different domain: pack on the spot
        }
    }
    compiled_->arm(d.deltatime);
    tasks_last_iteration_ = compiled_->task_count() + packs;
    compiled_->start();

    const bool tracing = amt::trace::enabled();
    const auto wait0 = tracing ? amt::clock::now() : amt::clock::time_point{};
    compiled_->wait();
    const auto resumed = amt::clock::now();
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, resumed,
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }

    k::dt_constraints combined;
    const k::dt_constraints* partials = compiled_->partials();
    for (std::size_t s = 0; s < compiled_->slot_count(); ++s) {
        combined = k::min_constraints(combined, partials[s]);
    }
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;

    // Per-phase durations from the barrier-completion stamps.  The last
    // phase (constraints) is the reduction above: it starts when this
    // thread resumes from wait(), so the latency of waking it after B4 is
    // booked to no phase.  The tracer gets the same windows as retroactive
    // phase spans (on a dedicated pseudo-thread, so they cannot break
    // nesting on this thread's timeline) — the per-phase utilization report
    // attributes worker time to these windows.
    const auto& stamps = compiled_->stamps();
    const auto reduced = amt::clock::now();
    auto prev = t0;
    for (std::size_t ph = 0; ph < phase_profile::num_phases; ++ph) {
        const bool waves = ph < stamps.size();
        const auto begin = waves ? prev : resumed;
        const auto end = waves ? stamps[ph] : reduced;
        profile_.seconds[ph] +=
            std::chrono::duration<double>(end - begin).count();
        if (tracing) {
            const std::int64_t b = amt::trace::to_ns(begin);
            const std::int64_t e = amt::trace::to_ns(end);
            amt::trace::emit_phase(phase_profile::name(ph), b, e - b,
                                   d.cycle);
        }
        prev = end;
    }
    ++profile_.iterations;

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

}  // namespace lulesh
