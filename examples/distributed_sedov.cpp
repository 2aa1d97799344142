// examples/distributed_sedov.cpp
//
// The paper's future-work direction, runnable: the Sedov problem decomposed
// into z-slabs that exchange halos through channels, in both exchange
// styles — futurized (slabs overlap freely, HPX-style) and bulk-synchronous
// (global barrier per wave, MPI-style) — and a check that both match the
// single-domain solution exactly.
//
//   ./distributed_sedov -s 12 -i 50 -t 4        # 4 slabs by default
//   ./distributed_sedov -s 16 -i 80 -t 2 -r 21

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "dist/halo_audit.hpp"
#include "dist/resilient_dist.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/validate.hpp"

namespace {

/// Max |e − single-domain| over every slab slice — 0.0 means bitwise.
lulesh::real_t max_energy_diff(lulesh::dist::cluster& c,
                               const lulesh::domain& global) {
    lulesh::real_t max_diff = 0.0;
    for (lulesh::index_t s = 0; s < c.num_slabs(); ++s) {
        const auto& d = c.slab(s);
        const lulesh::index_t eoff = d.elem_offset();
        for (lulesh::index_t e = 0; e < d.numElem(); ++e) {
            max_diff = std::max(
                max_diff,
                std::fabs(d.e[static_cast<std::size_t>(e)] -
                          global.e[static_cast<std::size_t>(eoff + e)]));
        }
    }
    return max_diff;
}

/// Per-slab halo traffic drained from the trace: halo_span events carry the
/// slab id in `arg` (pack spans stamped on the sender, unpack spans on the
/// receiver), so grouping by arg splits the exchange cost per slab.
struct slab_halo_stats {
    double pack_s = 0.0;
    std::uint64_t pack_count = 0;
    double unpack_s = 0.0;
    std::uint64_t unpack_count = 0;
};

std::vector<slab_halo_stats> per_slab_halo(
    const amt::trace::trace_snapshot& snap, lulesh::index_t num_slabs) {
    std::vector<slab_halo_stats> slabs(static_cast<std::size_t>(num_slabs));
    for (const auto& th : snap.threads) {
        for (const auto& ev : th.events) {
            if (ev.kind != amt::trace::event_kind::halo_span) continue;
            if (ev.arg < 0 ||
                ev.arg >= static_cast<std::int32_t>(num_slabs)) {
                continue;
            }
            auto& s = slabs[static_cast<std::size_t>(ev.arg)];
            const double sec = static_cast<double>(ev.dur_ns) * 1e-9;
            if (std::strncmp(ev.name, "halo:pack", 9) == 0) {
                s.pack_s += sec;
                ++s.pack_count;
            } else {
                s.unpack_s += sec;
                ++s.unpack_count;
            }
        }
    }
    return slabs;
}

/// The standard utilization report plus a per-slab halo breakdown: the JSON
/// form appends a "slabs" array to the usual document (a schema superset —
/// every consumer of the plain report keeps working), the text form appends
/// a section.
bool write_utilization_with_slabs(
    const std::string& path, const amt::trace::utilization_report& rep,
    const std::vector<slab_halo_stats>& slabs) {
    std::ofstream os(path, std::ios::trunc);
    if (!os) return false;
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    if (json) {
        std::ostringstream base;
        amt::trace::write_utilization_json(base, rep);
        std::string body = base.str();
        while (!body.empty() &&
               (body.back() == '\n' || body.back() == ' ')) {
            body.pop_back();
        }
        if (!body.empty() && body.back() == '}') body.pop_back();
        os << body << ",\n  \"slabs\": [\n";
        os << std::fixed << std::setprecision(6);
        for (std::size_t s = 0; s < slabs.size(); ++s) {
            os << "    {\"slab\": " << s
               << ", \"halo_pack_s\": " << slabs[s].pack_s
               << ", \"halo_pack_count\": " << slabs[s].pack_count
               << ", \"halo_unpack_s\": " << slabs[s].unpack_s
               << ", \"halo_unpack_count\": " << slabs[s].unpack_count << "}"
               << (s + 1 < slabs.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
    } else {
        amt::trace::write_utilization_text(os, rep);
        os << "\nper-slab halo traffic (worker-seconds):\n";
        os << std::fixed << std::setprecision(6);
        for (std::size_t s = 0; s < slabs.size(); ++s) {
            os << "  slab " << s << ": pack " << slabs[s].pack_s << " s ("
               << slabs[s].pack_count << " spans), unpack "
               << slabs[s].unpack_s << " s (" << slabs[s].unpack_count
               << " spans)\n";
        }
    }
    return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
    lulesh::cli_options cli;
    try {
        cli = lulesh::parse_cli(argc, argv);
    } catch (const std::exception& err) {
        std::cerr << err.what() << "\n" << lulesh::usage_text(argv[0]);
        return 1;
    }
    if (cli.show_help) {
        std::cout << lulesh::usage_text(argv[0])
                  << "  (-t selects both the worker-thread and slab count "
                     "here)\n";
        return 0;
    }
    // Flags parse_cli accepts that this program would otherwise ignore.
    const char* unread = nullptr;
    if (!cli.checkpoint_load.empty()) {
        unread = "--checkpoint-load restores a single domain, which "
                 "distributed_sedov never does — use lulesh_app";
    } else if (cli.critical_path_report) {
        unread = "--critical-path-report profiles the single-domain "
                 "compiled graph, which distributed_sedov never runs — use "
                 "lulesh_app";
    } else if (!cli.checkpoint_save.empty() && cli.checkpoint_every <= 0) {
        unread = "--checkpoint-save names the resilient loop's per-slab "
                 "mirror files here — combine it with --checkpoint-every";
    } else if (cli.driver != "taskgraph") {
        unread = "-d selects a single-domain driver; distributed_sedov runs "
                 "the task graph on every slab (-d taskgraph) — use "
                 "lulesh_app";
    }
    if (unread != nullptr) {
        std::cerr << "lulesh: " << unread << "\n"
                  << lulesh::usage_text(argv[0]);
        return 1;
    }
    if (cli.problem.max_cycles == std::numeric_limits<int>::max()) {
        cli.problem.max_cycles = 50;
    }
    const std::size_t threads =
        cli.threads != 0 ? cli.threads
                         : std::max(1u, std::thread::hardware_concurrency());
    const auto num_slabs = static_cast<lulesh::index_t>(
        std::min<std::size_t>(threads, static_cast<std::size_t>(cli.problem.size)));
    const auto parts = cli.partitions.value_or(
        lulesh::partition_sizes::tuned_for(cli.problem.size));

    // -q keeps errors and the audit verdict and drops the rest.
    if (!cli.quiet) {
        std::cout << "Distributed Sedov: size " << cli.problem.size
                  << "^3 over " << num_slabs << " slabs, " << threads
                  << " worker threads, " << cli.problem.max_cycles
                  << " iterations\n\n";
    }

    if (cli.audit_graph) {
        // Prove each slab's wave graph *plus* its halo pack/unpack tasks
        // race-free for this exact decomposition before trusting any
        // exchange mode with a run.
        lulesh::dist::cluster probe(cli.problem, num_slabs);
        const auto audits = lulesh::dist::audit_cluster(probe, parts);
        std::cout << lulesh::dist::format_cluster_audit(audits);
        if (!lulesh::dist::cluster_audit_ok(audits)) {
            return lulesh::exit_code_for(lulesh::status::hazard);
        }
        if (!cli.quiet) std::cout << "\n";
    }

    // Ground truth: single-domain serial run.
    lulesh::domain global(cli.problem);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, cli.problem.max_cycles);
    }

    const bool want_trace =
        !cli.trace_file.empty() || !cli.utilization_report_file.empty();
    if (want_trace) {
        amt::trace::set_thread_name("main");
        amt::trace::arm();
    }

    std::unique_ptr<amt::metrics::reporter> metrics_reporter;
    if (!cli.metrics_file.empty()) {
        // Arms the registry and starts interval snapshots; stopped (with a
        // final flush) after every exchange mode has run.
        metrics_reporter = std::make_unique<amt::metrics::reporter>(
            amt::metrics::reporter::options{
                cli.metrics_file,
                std::chrono::milliseconds(cli.metrics_interval_ms)});
    }

    amt::runtime rt(threads);
    using mode = lulesh::dist::dist_driver::exchange_mode;
    for (const mode m : {mode::futurized, mode::bulk_synchronous}) {
        lulesh::dist::cluster c(cli.problem, num_slabs);
        lulesh::dist::dist_driver drv(
            rt, parts, m, std::chrono::milliseconds(cli.halo_timeout_ms));
        const auto result =
            lulesh::dist::run_simulation(c, drv, cli.problem.max_cycles);

        // Validate every slab slice against the single-domain solution.
        const lulesh::real_t max_diff = max_energy_diff(c, global);
        if (!cli.quiet) {
            std::cout << drv.name() << ": " << result.cycles << " cycles in "
                      << result.elapsed_seconds << " s, origin energy "
                      << result.final_origin_energy
                      << ", max |e - single-domain| = " << max_diff
                      << (max_diff == 0.0 ? "  (bitwise identical)" : "")
                      << "\n";
        }
    }

    int exit_status = 0;
    if (cli.checkpoint_every > 0) {
        // Fail-soft mode: the futurized exchange under the failure detector
        // and the channel-level retry layer, with coordinated rollback over
        // per-slab checkpoint rings.  Fault-injection campaigns (slab_kill,
        // halo_drop, halo_corrupt sites — see docs/resilience.md) recover
        // bitwise-identically here instead of exiting.
        amt::resilience().reset();
        lulesh::dist::cluster c(cli.problem, num_slabs);
        lulesh::dist::dist_driver drv(
            rt, parts, mode::futurized,
            std::chrono::milliseconds(cli.halo_timeout_ms),
            lulesh::dist::retry_policy{});
        lulesh::resilience_options ropt;
        ropt.checkpoint_every = cli.checkpoint_every;
        ropt.max_recoveries = cli.max_recoveries;
        ropt.checkpoint_path = cli.checkpoint_save;
        const auto rr =
            lulesh::dist::run_resilient(c, drv, ropt, cli.problem.max_cycles);
        const auto& rc = amt::resilience();
        if (!cli.quiet) {
            std::cout << "dist_resilient: " << rr.result.cycles
                      << " cycles in " << rr.result.elapsed_seconds
                      << " s, origin energy " << rr.result.final_origin_energy
                      << ", max |e - single-domain| = "
                      << max_energy_diff(c, global) << "\n  recoveries "
                      << rr.recoveries << " (slab rebuilds "
                      << rr.slab_rebuilds << ", entry fallbacks "
                      << rr.entry_fallbacks << ", dt halvings "
                      << rr.dt_halvings << "), checkpoints " << rr.checkpoints
                      << "\n  counters: crc_failures "
                      << rc.halo_crc_failures.load() << ", retries "
                      << rc.halo_retries.load() << ", resends "
                      << rc.halo_resends.load() << ", drops "
                      << rc.halo_drops.load() << ", slab_deaths "
                      << rc.slab_deaths.load() << ", heartbeats "
                      << rc.heartbeats.load() << "\n";
        }
        if (rr.result.run_status != lulesh::status::ok) {
            std::cerr << "dist_resilient: " << rr.result.error_message << "\n";
            exit_status = lulesh::exit_code_for(rr.result.run_status);
        }
    }

    if (want_trace) {
        // All exchange modes have completed and every future was
        // consumed — the rings are quiescent even though the runtime is
        // still alive.
        amt::trace::disarm();
        const auto snap = amt::trace::drain();
        if (!cli.trace_file.empty()) {
            if (!amt::trace::write_chrome_trace_file(cli.trace_file, snap)) {
                std::cerr << "lulesh: cannot write trace file '"
                          << cli.trace_file << "'\n";
                return 1;
            }
            if (!cli.quiet) {
                std::cout << "Trace written to '" << cli.trace_file << "'\n";
            }
        }
        if (!cli.utilization_report_file.empty()) {
            const auto report = amt::trace::build_utilization(snap);
            const auto slabs = per_slab_halo(snap, num_slabs);
            if (!write_utilization_with_slabs(cli.utilization_report_file,
                                              report, slabs)) {
                std::cerr << "lulesh: cannot write utilization report '"
                          << cli.utilization_report_file << "'\n";
                return 1;
            }
            if (!cli.quiet) {
                std::cout << "Utilization report written to '"
                          << cli.utilization_report_file << "'\n";
            }
        }
    }

    if (metrics_reporter) {
        // Every exchange mode has completed and all futures were consumed —
        // counter shards are quiescent, so the final snapshot is complete.
        if (!metrics_reporter->stop()) {
            std::cerr << "lulesh: cannot write metrics snapshots to '"
                      << cli.metrics_file << "'\n";
            return 1;
        }
        if (!cli.quiet) {
            std::cout << "Metrics snapshots ("
                      << metrics_reporter->snapshots_written()
                      << ") written to '" << cli.metrics_file << "'\n";
        }
    }

    if (cli.quiet) return exit_status;
    std::cout << "\nper-slab plane ranges:\n";
    lulesh::dist::cluster census(cli.problem, num_slabs);
    for (lulesh::index_t s = 0; s < census.num_slabs(); ++s) {
        const auto& ext = census.slab(s).slab();
        std::cout << "  slab " << s << ": planes [" << ext.plane_begin << ", "
                  << ext.plane_end << ") — " << census.slab(s).numElem()
                  << " elements\n";
    }
    return exit_status;
}
