// core/driver_taskgraph.cpp — the many-task leapfrog iteration: the
// iteration table compiled once into a static graph, re-armed and replayed
// every advance().

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
    cfg.profile_nodes = profile_nodes_;
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
    // concurrently with this iteration's compute, gating B1 (node fields)
    // and B3 (element fields) — the placement add_checkpoint_pack_tasks
    // models, so the graph audit is the proof the overlap cannot race.
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
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, amt::clock::now(),
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }

    // Per-phase durations from the barrier-completion stamps.  The tracer
    // gets the same windows as retroactive phase spans (on a dedicated
    // pseudo-thread, so they cannot break nesting on this thread's
    // timeline) — the per-phase utilization report attributes worker time
    // to these windows.
    const auto& stamps = compiled_->stamps();
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
    const k::dt_constraints* partials = compiled_->partials();
    for (std::size_t s = 0; s < compiled_->slot_count(); ++s) {
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

}  // namespace lulesh
