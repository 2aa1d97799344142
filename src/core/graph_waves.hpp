// core/graph_waves.hpp
//
// What the nodes of a compiled iteration run: the nine wave_body::
// kernels, the dispatcher that runs a table task's bodies in sequence
// (core/access.hpp's task_decl: one task per chunk per wave), the
// wave_site labels every task reports, and the per-iteration state the
// drivers share with their tasks (error flags and the opt-in sentinel).

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "amt/amt.hpp"
#include "amt/atomic.hpp"
#include "amt/hazard.hpp"
#include "core/access.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh {
class state_capture;
}  // namespace lulesh

namespace lulesh::graph {

/// The site labels every wave's tasks report to fault probes and, as node
/// labels, to the trace and the critical-path report.  Deliberately
/// identical to the phase_profile::name() strings of the four graph waves
/// so both read like the profiles (the fifth phase, constraints, is the
/// driver's reduction of the region tasks' dt partials).
namespace wave_site {
inline constexpr const char* force = "force";
inline constexpr const char* node = "node";
inline constexpr const char* elem = "elem";
inline constexpr const char* region_eos = "region_eos";
}  // namespace wave_site

/// The wave_site label of a wave_body kind.
[[nodiscard]] constexpr const char* wave_site_of(body_kind k) noexcept {
    switch (k) {
        case body_kind::force_stress:
        case body_kind::force_hourglass:
            return wave_site::force;
        case body_kind::node:
            return wave_site::node;
        case body_kind::elem:
            return wave_site::elem;
        default:
            return wave_site::region_eos;
    }
}

/// Chunk-count arithmetic shared by the table builder and its consumers.
[[nodiscard]] constexpr index_t wave_chunks(index_t n, index_t p) noexcept {
    return p > 0 ? (n + p - 1) / p : n;
}

/// The kernel bodies the waves' tasks run.  Every driver that runs the
/// task graph reaches them through run_body(), so the taskgraph and dist
/// drivers run identical floating-point operations in identical order.
namespace wave_body {
void force_stress(domain& d, index_t lo, index_t hi,
                  amt::atomic<bool>& vol_ok);
void force_hourglass(domain& d, index_t lo, index_t hi,
                     amt::atomic<bool>& vol_ok);
void node_gather(domain& d, index_t lo, index_t hi);
void node_velpos(domain& d, index_t lo, index_t hi, real_t dt);
void elem_fused(domain& d, index_t lo, index_t hi, real_t dt,
                amt::atomic<bool>& vol_ok, amt::atomic<bool>& q_ok);
void region_monoq(domain& d, const index_t* list, index_t lo, index_t hi);
void region_eos(domain& d, const index_t* list, index_t lo, index_t hi,
                int rep, kernels::eos_scratch& scratch);
void volume_update(domain& d, index_t lo, index_t hi);
void constraints(domain& d, const index_t* list, index_t lo, index_t hi,
                 kernels::dt_constraints& out);
}  // namespace wave_body

/// What a table task's body runs against, bound per replay: the domain,
/// the step, the iteration's error flags and the dt partial slots.
struct body_env {
    domain* dom = nullptr;
    real_t dt = 0;
    amt::atomic<bool>* volume_ok = nullptr;
    amt::atomic<bool>* qstop_ok = nullptr;
    kernels::dt_constraints* partials = nullptr;
};

/// The dispatcher: runs the wave_body:: calls that task `t` describes
/// (is_wave_body(t.kind)) against `env`, in body order over t's chunk.
/// Region lists and EOS repetition counts are read from the bound domain;
/// `scratch` is the EOS work arrays (region tasks only).
void run_body(const task_decl& t, const body_env& env,
              kernels::eos_scratch* scratch);

/// Opt-in per-task instrumentation: the dynamic shadow-epoch hazard
/// tracker (amt/hazard) and the NaN sentinel.  Null in error_flags by
/// default — the compiled graph then builds no per-task access sets.
struct iteration_sentinel {
    /// One task's declared accesses, built for the bound domain.
    struct task_ctx {
        std::vector<access> accs;          ///< declared accesses of the task
        amt::hazard::access_set decl;      ///< accs expanded for the tracker
    };

    bool track_hazards = false;
    bool scan_nan = false;

    /// Where the NaN scan found trouble (static strings; set once per
    /// episode, first writer wins is not needed — any site will do).
    amt::atomic<const char*> nan_wave_site{nullptr};
    amt::atomic<const char*> nan_field_name{nullptr};
};

/// Shared per-iteration context: error flags aggregated by tasks and
/// checked at iteration end.  Copies share state
/// (everything is behind shared_ptrs), so a compiled graph holding a copy
/// observes the driver's flags.
struct error_flags {
    std::shared_ptr<amt::atomic<bool>> volume_ok =
        std::make_shared<amt::atomic<bool>>(true);
    std::shared_ptr<amt::atomic<bool>> qstop_ok =
        std::make_shared<amt::atomic<bool>>(true);

    /// Cleared by a task whose NaN scan (sentinel->scan_nan) found a
    /// non-finite value in a field it had just written; checked at the
    /// barrier so a blow-up is reported with its wave site instead of
    /// surfacing as a wrong answer many iterations later.  Always true
    /// when the sentinel is off.
    std::shared_ptr<amt::atomic<bool>> nan_ok =
        std::make_shared<amt::atomic<bool>>(true);

    /// Opt-in dynamic instrumentation (hazard tracking, NaN scanning);
    /// null by default.
    std::shared_ptr<iteration_sentinel> sentinel;

    void reset() {
        volume_ok->store(true, amt::memory_order_relaxed);
        qstop_ok->store(true, amt::memory_order_relaxed);
        nan_ok->store(true, amt::memory_order_relaxed);
    }
};

/// Number of dt partial slots the region wave fills for this domain: one
/// per (region, chunk).
std::size_t constraint_slot_count(const domain& d, index_t p_elems);

/// Site label of the overlapped checkpoint pack tasks: their fault probe,
/// task label, and checkpoint span.
inline constexpr const char* ckpt_pack_site = "ckpt.pack";

/// The body of one overlapped checkpoint pack task, shared by every driver
/// that packs a capture alongside the next iteration's compute: claims and
/// packs region `i` of `cap` under the task wrapper's label, fault probe
/// and tracing, with two deliberate differences.  It ignores the graph's stop
/// flag: the capture holds the *previous* iteration's state, which stays
/// valid when this iteration faults, and the rollback path commits it.
/// Exceptions are swallowed into mark_failed() instead of propagating: a
/// faulted pack must never fail the compute iteration; the resilient loop
/// drops the capture and covers its regions at the next checkpoint.
void pack_region_task(state_capture& cap, std::size_t i);

}  // namespace lulesh::graph
