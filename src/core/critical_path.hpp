// core/critical_path.hpp
//
// LULESH-aware critical-path report over a profiled compiled iteration:
// amt::profile_graph supplies the runtime-generic longest-path analysis
// (per-node means, whole-iteration critical path, ideal speedup); this
// layer adds the leapfrog phase semantics — every compute node is binned
// into its wave (phase_profile::name order) via compiled_iteration's
// stage table, and each of the four graph waves gets (the fifth profile
// phase, constraints, is the driver's dt reduction and has no nodes)
//
//   work        Σ mean node cost of the phase (one iteration);
//   chain       the longest dependency chain *within* the phase (edges
//               crossing a barrier belong to the global path, not here);
//   parallelism work / chain — how many workers the phase can actually
//               feed, the per-phase Table-I signal;
//   slack       max(0, chain − work/workers): the wall time per iteration
//               the phase spends chain-bound — no amount of load balancing
//               recovers it, only splitting the chain (smaller partitions)
//               does.  0 means the phase is work-bound at this worker
//               count and partition splitting cannot help.
//
// Reported behind `lulesh_app --critical-path-report[=PATH]` as both
// human-readable text and a JSON document (scripts/validate_critical_path.py
// checks the two agree).

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/driver_taskgraph.hpp"

namespace lulesh {

struct critical_path_report {
    struct phase_stats {
        const char* name = "";
        std::size_t tasks = 0;
        double work_ns = 0.0;
        double chain_ns = 0.0;
        double parallelism = 0.0;
        double slack_ns = 0.0;
    };
    struct task_stats {
        const char* label = "";
        std::int32_t arg = -1;
        int stage = -1;  ///< phase_profile index 0..3; -1 for barriers
        double mean_ns = 0.0;
        std::uint64_t runs = 0;
        bool on_critical_path = false;
    };

    std::uint64_t iterations = 0;  ///< profiled replays behind the means
    std::size_t workers = 0;
    std::size_t nodes = 0;
    double work_ns = 0.0;           ///< one iteration's total compute
    double critical_path_ns = 0.0;  ///< longest mean-weighted chain
    double ideal_speedup = 0.0;     ///< work / critical path
    /// One per graph wave, in phase_profile order.
    std::array<phase_stats, graph::compiled_iteration::num_barriers>
        phases{};
    std::vector<task_stats> critical_path;  ///< root → sink node sequence
    std::vector<task_stats> top;            ///< top-k by mean cost
};

/// Analyzes the compiled iteration's node costs over its profile window
/// (quiescent; the replays since the graph was compiled or since
/// taskgraph_driver::enable_node_profiling(true) — iterations == 0 means
/// the window is empty and the report says so).  `workers` prices the
/// slack bound.
[[nodiscard]] critical_path_report analyze_critical_path(
    const graph::compiled_iteration& ci, std::size_t workers,
    std::size_t top_k = 10);

/// Human-readable report (durations in integer ns, so the JSON round-trip
/// is exact — scripts/validate_critical_path.py depends on that).
void write_critical_path_text(std::ostream& os,
                              const critical_path_report& r);

/// Single JSON document mirroring every field of the text report.
void write_critical_path_json(std::ostream& os,
                              const critical_path_report& r);

}  // namespace lulesh
