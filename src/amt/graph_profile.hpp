// amt/graph_profile.hpp
//
// Critical-path analysis over a sealed static_graph, whose nodes always
// book their task intervals as costs (static_graph::node_time_ns).  The
// analyzer is a pure topology walk — run it while the graph is quiescent,
// any time after one or more replays of the profile window:
//
//   * per-node mean cost  = accum_ns / timed_runs (recycled nodes integrate
//     across replays, so means tighten as iterations accumulate);
//   * work                = Σ mean over all nodes — one iteration's total
//     compute, the numerator of the speedup bound;
//   * critical path       = the longest mean-weighted dependency chain,
//     found by a Kahn-order DP (dist[v] = mean[v] + max over predecessors);
//     no schedule, however many workers it has, can finish an iteration
//     faster than this;
//   * ideal speedup       = work / critical_path — the graph-shape bound on
//     parallelism (Brent's bound with p → ∞).
//
// Everything is O(nodes + edges) and allocation is confined to the result;
// the hot replay path is untouched.  core/critical_path.{hpp,cpp} layers
// the LULESH phase semantics (per-phase slack, barrier attribution) on top
// of this runtime-generic core.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "amt/static_graph.hpp"

namespace amt {

/// One node's cost summary inside a graph_profile.
struct profiled_node {
    static_graph::node_id id = 0;
    const char* label = "node";
    std::int32_t arg = -1;
    std::uint64_t total_ns = 0;  ///< accumulated over all profiled runs
    std::uint64_t runs = 0;      ///< profiled runs contributing to total_ns
    double mean_ns = 0.0;        ///< total_ns / runs (0 when never timed)
    bool on_critical_path = false;
};

struct graph_profile {
    std::vector<profiled_node> nodes;     ///< indexed by node id
    std::vector<static_graph::node_id> critical_path;  ///< root → sink
    double work_ns = 0.0;           ///< Σ mean over nodes (one iteration)
    double critical_path_ns = 0.0;  ///< longest mean-weighted chain
    double ideal_speedup = 0.0;     ///< work / critical path (1.0 if empty)

    /// The k most expensive nodes by mean cost, descending — the "where
    /// would speeding up one task help" list for reports.
    [[nodiscard]] std::vector<profiled_node> top(std::size_t k) const;
};

/// Analyzes a sealed, quiescent graph.  Nodes that were never profiled
/// weigh zero (the structure still contributes to path length through
/// their edges).
[[nodiscard]] graph_profile profile_graph(const static_graph& g);

}  // namespace amt
