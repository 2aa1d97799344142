// lulesh/options.hpp
//
// Problem setup parameters, mirroring the reference implementation's command
// line (-s, -r, -i, -b, -c, -q) plus the knobs this reproduction adds
// (driver selection, thread counts, task partition sizes).

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "lulesh/types.hpp"

namespace lulesh {

struct options {
    /// Mesh elements per edge (problem size `s`); the mesh has size^3
    /// elements and (size+1)^3 nodes.
    index_t size = 30;

    /// Number of material regions (`-r`, default 11 as in the reference).
    index_t num_regions = 11;

    /// Load-imbalance weighting between regions (`-b`): region selection
    /// probability is proportional to (region_index+1)^balance.
    int balance = 1;

    /// Extra-cost multiplier for expensive regions (`-c`): mid-tier regions
    /// repeat the EOS evaluation (1 + cost) times, the top ~5% of regions
    /// 10*(1 + cost) times.  Default 1 → 2x and 20x as described in the
    /// paper.
    int cost = 1;

    /// Iteration cap (`-i`); the run stops at whichever of stoptime /
    /// max_cycles comes first.  The paper's artifact-evaluation appendix
    /// prescribes caps for the larger sizes.
    int max_cycles = std::numeric_limits<int>::max();

    /// Deterministic seed for the region assignment PRNG.  The reference
    /// uses srand(0); any fixed value gives reproducible region maps.
    std::uint64_t region_seed = 0;
};

/// Task partition sizes for the task-graph driver: elements (or nodes) per
/// task in each phase of the leapfrog algorithm, i.e. the paper's Table I
/// tuning knobs.
struct partition_sizes {
    index_t nodal = 2048;  ///< LagrangeNodal() phase
    index_t elems = 2048;  ///< LagrangeElements() phase

    /// The paper's tuned values (Table I) for a given problem size:
    ///   size:    45    60    75    90    120   150
    ///   nodal:  2048  4096  8192  8192  8192  8192
    ///   elems:  2048  2048  4096  4096  2048  2048
    /// Sizes below 45 extrapolate downward so that small test problems still
    /// split into multiple tasks.
    static partition_sizes tuned_for(index_t problem_size) {
        partition_sizes p;
        if (problem_size >= 75) {
            p.nodal = 8192;
        } else if (problem_size >= 60) {
            p.nodal = 4096;
        } else if (problem_size >= 45) {
            p.nodal = 2048;
        } else {
            p.nodal = 512;
        }
        if (problem_size >= 120) {
            p.elems = 2048;
        } else if (problem_size >= 75) {
            p.elems = 4096;
        } else if (problem_size >= 45) {
            p.elems = 2048;
        } else {
            p.elems = 512;
        }
        return p;
    }
};

/// Result of a completed run.
struct run_result {
    int cycles = 0;                 ///< leapfrog iterations executed
    real_t final_time = 0.0;        ///< simulated time reached
    real_t final_dt = 0.0;          ///< last time increment
    real_t final_origin_energy = 0; ///< e(0), the reference's headline check
    double elapsed_seconds = 0.0;   ///< wall time of the iteration loop
    status run_status = status::ok;
    /// Human-readable failure description naming the failing cycle and dt
    /// (empty when run_status == status::ok).
    std::string error_message;
};

/// Parsed command line for the example/benchmark executables.
struct cli_options {
    options problem;
    std::string driver = "taskgraph";  ///< serial | parallel_for | taskgraph | foreach
    std::size_t threads = 0;           ///< 0 = hardware concurrency
    std::optional<partition_sizes> partitions;  ///< default: tuned_for(size)
    bool quiet = false;
    bool show_help = false;
    std::string checkpoint_save;  ///< write a checkpoint here after the run
    std::string checkpoint_load;  ///< restore from here before the run

    /// > 0 enables the resilient run loop (lulesh/resilient_run.hpp):
    /// checkpoint every K cycles and roll back + retry on failures.
    int checkpoint_every = 0;
    /// Retry budget per incident for the resilient loop.
    int max_retries = 3;

    /// Distributed halo-exchange progress deadline in milliseconds (0 = no
    /// deadline, the default).  > 0 arms the dist driver's per-slab failure
    /// detector: a deadline's worth of zero progress fails the halo fabric
    /// with status::stalled and names the suspect slab instead of hanging.
    /// Only meaningful for the distributed executables; rejected with the
    /// non-tasking drivers.
    int halo_timeout_ms = 0;
    /// Coordinated-recovery budget per incident for the distributed
    /// resilient loop (dist/resilient_dist.hpp).
    int max_recoveries = 3;

    /// Run the static task-graph hazard audit at startup (core/graph_audit)
    /// and exit with status::hazard if an unordered overlap is found.
    bool audit_graph = false;

    /// Non-empty: arm the task tracer (amt/trace) and write a Chrome
    /// trace-event JSON file here after the run.
    std::string trace_file;

    /// Non-empty: arm the tracer and write the per-phase utilization report
    /// here (".json" suffix → JSON, anything else → text table).
    std::string utilization_report_file;

    /// Non-empty: arm the metrics registry (amt/metrics) and run the
    /// interval reporter against this path for the whole run (".prom"
    /// suffix → Prometheus text rewritten each interval, anything else →
    /// one JSON snapshot appended per line).  `--metrics` bare defaults to
    /// "metrics.json"; `--metrics=PATH` overrides (no space-separated form
    /// — a following argument is never consumed).  Rejected with the
    /// non-tasking drivers — the registry instruments scheduler tasks.
    std::string metrics_file;
    /// Reporter snapshot interval in milliseconds (--metrics-interval,
    /// default 1000); requires --metrics.
    int metrics_interval_ms = 1000;

    /// --critical-path-report[=PATH]: profile the compiled graph's nodes
    /// and print the critical-path report (per-iteration path length,
    /// per-phase slack, top-k tasks) after the run; with =PATH the same
    /// report is also written as JSON.  Taskgraph driver in replay mode
    /// only — the profile lives on the compiled graph's recycled nodes.
    bool critical_path_report = false;
    std::string critical_path_json;
};

/// Parses argv in the style of the reference binary (`-s 30 -r 11 -i 100 -q`)
/// extended with `-d <driver>`, `-t <threads>`, `-p <nodal> <elems>`.
/// --audit-graph models the task-graph wave structure, and --trace,
/// --utilization-report, --metrics and --halo-timeout observe or guard
/// scheduler tasks, so each is rejected with a driver that spawns none
/// (serial, parallel_for); --critical-path-report needs taskgraph.
/// Throws std::invalid_argument on malformed input.
cli_options parse_cli(int argc, const char* const* argv);

/// Usage text for the executables.
std::string usage_text(const std::string& program);

}  // namespace lulesh
