// core/graph_waves.hpp
//
// What the nodes of a compiled iteration run: the wave_body:: kernels of
// the five leapfrog waves, the dispatcher that calls them for a table task
// (core/access.hpp's task_decl), the wave_site labels every task reports,
// and the per-iteration state the drivers share with their tasks (error
// flags, progress tracker, opt-in sentinel).

#pragma once

#include <array>
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

/// The site labels every wave's tasks report to fault probes, the progress
/// tracker, and the watchdog.  Deliberately identical to the
/// phase_profile::name() strings so stall reports read like the profiles.
namespace wave_site {
inline constexpr const char* force = "force";
inline constexpr const char* node = "node";
inline constexpr const char* elem = "elem";
inline constexpr const char* region_eos = "region_eos";
inline constexpr const char* constraints = "constraints";
}  // namespace wave_site

/// The wave_site label of a wave_body kind.
[[nodiscard]] constexpr const char* wave_site_of(body_kind k) noexcept {
    switch (k) {
        case body_kind::force_stress:
        case body_kind::force_hourglass:
            return wave_site::force;
        case body_kind::node_gather:
        case body_kind::node_velpos:
            return wave_site::node;
        case body_kind::elem_fused:
            return wave_site::elem;
        case body_kind::region_monoq:
        case body_kind::region_eos:
        case body_kind::volume_update:
            return wave_site::region_eos;
        default:
            return wave_site::constraints;
    }
}

/// Chunk-count arithmetic shared by the table builder and its consumers.
[[nodiscard]] constexpr index_t wave_chunks(index_t n, index_t p) noexcept {
    return p > 0 ? (n + p - 1) / p : n;
}

/// The fused kernel bodies of the five waves.  Every driver that runs the
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

/// The dispatcher: runs the wave_body:: call that task `t` describes
/// (is_wave_body(t.kind)) against `env`.  Region lists and EOS repetition
/// counts are read from the bound domain; `scratch` is the EOS task's
/// work arrays (region_eos only).
void run_body(const task_decl& t, const body_env& env,
              kernels::eos_scratch* scratch);

/// Task start/finish counters plus in-flight task labels, updated by the
/// task wrapper around every wave body.  External observers (the watchdog)
/// hold a shared_ptr and sample it from their own thread: a barrier that
/// stops making `finished` progress while `started` is ahead means a task
/// is stuck.
///
/// `site` is the label of the most recently *started* task — kept for
/// cheap single-label reporting (exact on a 1-worker runtime).  The
/// `worker_site` slots additionally track, per runtime worker, the label
/// of the task it is currently inside (nullptr between tasks), so a stall
/// report can name *every* in-flight site even when other workers started
/// tasks after the hung one.  Slot 0 collects tasks run inline on
/// non-worker threads; worker w uses slot w+1, saturating at the last
/// slot for runtimes wider than max_tracked_workers.
struct progress_state {
    static constexpr std::size_t max_tracked_workers = 64;

    amt::atomic<std::uint64_t> started{0};
    amt::atomic<std::uint64_t> finished{0};
    amt::atomic<const char*> site{nullptr};
    std::array<amt::atomic<const char*>, max_tracked_workers + 1>
        worker_site{};

    /// Labels of all tasks currently in flight (one entry per busy worker).
    [[nodiscard]] std::vector<const char*> in_flight_sites() const {
        std::vector<const char*> sites;
        for (const auto& slot : worker_site) {
            const char* s = slot.load(amt::memory_order_relaxed);
            if (s != nullptr) sites.push_back(s);
        }
        return sites;
    }
};

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
/// checked at iteration end, and the progress tracker.  Copies share state
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

    /// Stable across iterations, so a watchdog can keep observing one
    /// shared_ptr for a whole run.
    std::shared_ptr<progress_state> progress =
        std::make_shared<progress_state>();

    void reset() {
        volume_ok->store(true, amt::memory_order_relaxed);
        qstop_ok->store(true, amt::memory_order_relaxed);
        nan_ok->store(true, amt::memory_order_relaxed);
    }
};

/// Number of constraint partial slots wave 5 fills for this domain.
std::size_t constraint_slot_count(const domain& d, index_t p_elems);

/// Site label of the overlapped checkpoint pack tasks: their fault probe,
/// progress/watchdog label, and tracer span.
inline constexpr const char* ckpt_pack_site = "ckpt.pack";

/// The body of one overlapped checkpoint pack task, shared by every driver
/// that packs a capture alongside the next iteration's compute: claims and
/// packs region `i` of `cap` with the task wrapper's progress and tracing
/// plumbing, with two deliberate differences.  It ignores the graph's stop
/// flag: the capture holds the *previous* iteration's state, which stays
/// valid when this iteration faults, and the rollback path commits it.
/// Exceptions are swallowed into mark_failed() instead of propagating: a
/// faulted pack must never fail the compute iteration; the resilient loop
/// drops the capture and covers its regions at the next checkpoint.
void pack_region_task(state_capture& cap, std::size_t i,
                      progress_state& progress);

}  // namespace lulesh::graph
