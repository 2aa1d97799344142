// core/driver_taskgraph.cpp — the many-task leapfrog iteration: the
// iteration table compiled once into a static graph and replayed through
// graph::replay every advance().

#include "core/driver_taskgraph.hpp"

#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>

#include "amt/hazard.hpp"
#include "core/access.hpp"

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
    cfg_.track_hazards = track_hazards;
    cfg_.scan_nan = scan_nan;
}

void taskgraph_driver::prepare_instrumentation(domain& d) {
    if (!instrumentation_checked_) {
        // Environment opt-in, resolved once: AMT_HAZARD_TRACK also arms the
        // generic tracker at process start (amt/hazard.cpp), so armed()
        // reflects it here.
        enable_instrumentation(amt::hazard::armed(),
                               env_enabled("LULESH_NAN_SCAN"));
    }
    if (cfg_.track_hazards && hazard_arena_for_ != &d) {
        amt::hazard::bind_arena(
            &d, graph::arena_extents(
                    d, graph::constraint_slot_count(d, cfg_.parts.elems)));
        hazard_arena_for_ = &d;
    }
}

void taskgraph_driver::advance(domain& d) {
    prepare_instrumentation(d);

    // The replay compiles the graph on first use (or when d no longer fits
    // it), binds d, and lets a capture handed over by the resilient loop
    // (the previous iteration's state) be packed by tasks running
    // concurrently with this iteration's compute, gating B1 (node fields),
    // B2 (v) and B3 (the other element fields) — the placement
    // add_checkpoint_pack_tasks models, so the graph audit is the proof the
    // overlap cannot race.
    amt::trace::mark("cycle", d.cycle);
    domain* const slabs[] = {&d};
    graph::compiled_iteration& ci = replay_.arm(
        slabs,
        [this](const domain& dom, std::size_t) {
            return graph::build_iteration_table(dom, cfg_.parts);
        },
        cfg_);
    const auto t0 = amt::clock::now();
    tasks_last_iteration_ = ci.task_count() + ci.pack_count();
    ci.start();

    const bool tracing = amt::trace::enabled();
    const auto wait0 = tracing ? amt::clock::now() : amt::clock::time_point{};
    ci.wait();
    const auto resumed = amt::clock::now();
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, resumed,
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }
    ci.reduce_constraints();

    // Per-phase durations from the barrier-completion stamps.  The last
    // phase (constraints) is the reduction above: it starts when this
    // thread resumes from wait(), so the latency of waking it after B4 is
    // booked to no phase.  The tracer gets the same windows as retroactive
    // phase spans (on a dedicated pseudo-thread, so they cannot break
    // nesting on this thread's timeline) — the per-phase utilization report
    // attributes worker time to these windows.
    const auto& stamps = ci.stamps();
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

    ci.check();
}

bool taskgraph_driver::submit_overlapped_capture(
    std::shared_ptr<state_capture> cap) {
    return replay_.submit_capture(0, std::move(cap));
}

}  // namespace lulesh
