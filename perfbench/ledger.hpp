// perfbench/ledger.hpp
//
// The performance ledger: LULESH's figure of merit on three solves, plus a
// traced per-layer breakdown.  Everything here drives the libraries through
// their public calls and times them from outside; no probe lives in src/.
//
// A *solve* restores the cycle-0 state of a workload, advances it
// `solve_cycles` cycles, and compares a digest of the final fields with the
// serial driver's digest for the same problem (the *reference*).  The
// end-to-end run (ledger.cpp) repeats solves for the requested time; the
// traced run (layers.cpp) adds one measurement per layer.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "core/driver_taskgraph.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/options.hpp"

namespace perfbench {

using lulesh::index_t;
using steady = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(steady::time_point a,
                                            steady::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// The slab count of the distributed workload (and of the dist probes the
/// traced run makes on every workload's problem).
inline constexpr index_t dist_slabs = 4;

/// LULESH 2.0's published output for its default problem (s=30, 11
/// regions, cost 1, reference region map) run to stoptime.
inline constexpr int published_cycles = 932;
inline constexpr const char* published_energy = "2.025075e+05";

/// One benchmark workload: the problem (its region map drawn from the
/// seed), the task partitions, the decomposition and the solve length.
struct workload {
    std::string name;
    std::uint64_t seed = 0;  ///< the benchmark seed the region map came from
    lulesh::options problem;
    lulesh::partition_sizes parts;
    index_t slabs = 1;     ///< 1: taskgraph driver; >1: dist::run_resilient
    int solve_cycles = 0;  ///< cycles per timed solve
    std::size_t workers = 4;

    [[nodiscard]] bool distributed() const noexcept { return slabs > 1; }
    [[nodiscard]] double zones() const noexcept {
        const auto s = static_cast<double>(problem.size);
        return s * s * s;
    }
};

/// sedov30 | fine16 | dist30; throws std::invalid_argument otherwise.
[[nodiscard]] workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The serial driver's answer to a workload's problem after solve_cycles
/// cycles: a digest of the whole domain and one of each slab slice of the
/// dist_slabs decomposition.  For sedov30 on the reference region map it
/// also carries the full-length anchor run (cycles and origin energy).
struct reference {
    std::string workload;
    std::uint64_t seed = 0;
    int cycles = 0;
    std::uint64_t whole = 0;
    std::vector<std::uint64_t> slabs;
    double working_set_bytes = 0.0;  ///< of the workload's domain(s)
    int full_cycles = -1;  ///< -1: no anchor for this workload and seed
    std::string full_energy = "-";

    [[nodiscard]] bool has_anchor() const noexcept { return full_cycles >= 0; }
    [[nodiscard]] bool anchor_ok() const {
        return !has_anchor() || (full_cycles == published_cycles &&
                                 full_energy == published_energy);
    }
};

[[nodiscard]] reference make_reference(const workload& w);
void write_reference(const std::string& path, const reference& r);
/// Throws std::runtime_error on a missing or malformed file.
[[nodiscard]] reference read_reference(const std::string& path);

/// FNV-1a over the cycle, time, e/p/q/v of every element and x/y/z of every
/// node of `d`.
[[nodiscard]] std::uint64_t state_digest(const lulesh::domain& d);
/// The same over one slab's slice of a whole domain: the elements and nodes
/// a slab domain with extent `slab` holds, in its local order.
[[nodiscard]] std::uint64_t state_digest(const lulesh::domain& d,
                                         const lulesh::slab_extent& slab);
/// Every slab of `c` against the reference (the whole-domain digest for a
/// one-slab cluster).
[[nodiscard]] bool cluster_matches(const lulesh::dist::cluster& c,
                                   const reference& ref);

/// Bytes held by a domain's field, connectivity and region arrays
/// (computed from their sizes).
[[nodiscard]] double domain_bytes(const lulesh::domain& d);

/// Nearest-rank quantile of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

/// Named metrics in print order.
struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
using metric_list = std::vector<metric>;

/// Solves attempted and failed in one run.  A solve fails if it throws,
/// aborts, or its digest differs from the reference.
struct tally {
    long attempted = 0;
    long failed = 0;

    void record(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
};

/// What a series of solves measured.  Counters cover the timed cycles
/// only.
struct solve_stats {
    std::vector<double> solve_s;     ///< seconds of each good solve
    std::vector<double> best_cycle_s;  ///< per cycle index, over good solves
    std::vector<double> advance_ms;  ///< per cycle (taskgraph only)
    amt::counters_snapshot counters{};
    std::uint64_t halo_resends = 0;  ///< dist only, from amt::resilience()
    std::uint64_t halo_retries = 0;
    long cycles = 0;
};

/// The figure of merit of a series of solves: zone-cycles per second of
/// one solve made of each cycle's fastest repetition.  Every cycle index
/// does the same work in every solve, so its fastest repetition is its
/// cost with the least interference from the host's other tenants; a
/// median over whole solves moves with that interference.  0 without a
/// good solve.
[[nodiscard]] double steady_fom(const workload& w, const solve_stats& st);

// --- single-domain sessions (taskgraph driver) ----------------------------

/// Runtime, domain and driver of one taskgraph setup, plus the cycle-0
/// checkpoint record every solve restores.  Members are declared in
/// construction order, so the runtime outlives the driver.
struct taskgraph_session {
    taskgraph_session(const workload& w, std::size_t workers);

    amt::runtime rt;
    lulesh::domain dom;
    lulesh::taskgraph_driver drv;
    std::string entry;
    double setup_s = 0.0;  ///< construction plus the first cycle
    double first_advance_s = 0.0;
};

/// Builds a session and runs its first cycle, timing both (the entry
/// capture in between is not timed).
[[nodiscard]] std::unique_ptr<taskgraph_session> open_taskgraph(
    const workload& w, std::size_t workers);

/// Restores the entry state, runs one solve and checks its digest.
bool solve_taskgraph(taskgraph_session& s, const workload& w,
                     const reference& ref, solve_stats& st);

// --- distributed sessions (dist::run_resilient) ---------------------------

/// Runtime and dist driver (futurized exchange, default retry policy); a
/// solve builds a fresh cluster.
struct dist_session {
    dist_session(const workload& w, std::size_t workers);

    amt::runtime rt;
    lulesh::dist::dist_driver drv;
    double setup_s = 0.0;  ///< construction, a cluster, and its first cycle
};

[[nodiscard]] std::unique_ptr<dist_session> open_dist(const workload& w,
                                                      std::size_t workers);

/// Builds a cluster at cycle 0, runs one run_resilient solve with a
/// checkpoint every cycle, and checks every slab's digest.
bool solve_dist(dist_session& s, const workload& w, const reference& ref,
                solve_stats& st);

/// Repeats solves on whichever session is given until `budget_s` has
/// passed, and at least `min_solves` times.
void run_solves(taskgraph_session* tg, dist_session* ds, const workload& w,
                const reference& ref, double budget_s, int min_solves,
                tally& t, solve_stats& st);

// --- the two run modes -----------------------------------------------------

/// fom_zps, setup_s, peak_rss_mb, solved_frac.
void run_end_to_end(const workload& w, const reference& ref, double seconds,
                    metric_list& out, tally& t);

/// Every per-layer metric, plus the reconciliation table on stdout.
void run_traced(const workload& w, const reference& ref, double seconds,
                metric_list& out, tally& t);

}  // namespace perfbench
