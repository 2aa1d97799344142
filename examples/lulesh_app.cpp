// examples/lulesh_app.cpp
//
// The full application in the style of the reference binary: accepts the
// reference's flags plus the driver/thread/partition knobs, prints the
// classic end-of-run block (energy, symmetry diffs, grind time, FOM), emits
// the CSV line the artifact-evaluation appendix asks for, and supports
// checkpoint/restart.  `--slabs n` splits the mesh into n z-slabs that
// exchange halos through channels — the paper's future-work direction — and
// runs them on the taskgraph driver.
//
//   ./lulesh_app -s 30 -r 11 -i 500 -d taskgraph -t 4
//   ./lulesh_app -s 20 -i 100 --checkpoint-save half.ckpt
//   ./lulesh_app -s 20 -i 200 --checkpoint-load half.ckpt
//   ./lulesh_app -s 30 -i 100 -t 4 --slabs 4

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "amt/amt.hpp"
#include "core/critical_path.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "core/graph_audit.hpp"
#include "dist/checkpoint_dist.hpp"
#include "dist/resilient_dist.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/resilient_run.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

/// Plain loop, or the checkpoint/rollback loop when --checkpoint-every is
/// given, over a domain or a cluster (argument-dependent lookup picks the
/// loops of its namespace).
template <class Mesh, class Driver>
lulesh::run_result run_with(Mesh& mesh, Driver& drv,
                            const lulesh::cli_options& cli) {
    if (cli.checkpoint_every <= 0) {
        return run_simulation(mesh, drv, cli.problem.max_cycles);
    }
    lulesh::resilience_options ropt;
    ropt.checkpoint_every = cli.checkpoint_every;
    ropt.max_recoveries = cli.max_recoveries;
    ropt.checkpoint_path = cli.checkpoint_save;
    auto rr = run_resilient(mesh, drv, ropt, cli.problem.max_cycles);
    if (!cli.quiet && rr.last_rollback_cycle >= 0) {
        std::cout << "Resilient loop: " << rr.recoveries << " recovery(ies), "
                  << rr.entry_fallbacks << " entry fallback(s), "
                  << rr.dt_halvings << " dt halving(s), " << rr.checkpoints
                  << " checkpoint(s)\n";
    }
    return rr.result;
}

/// Drains the tracer and writes the requested trace / utilization outputs.
/// Called after the runtime scope closes (workers joined, rings quiescent).
int write_trace_outputs(const lulesh::cli_options& cli) {
    if (cli.trace_file.empty() && cli.utilization_report_file.empty()) {
        return 0;
    }
    const auto snap = amt::trace::drain();
    if (!cli.trace_file.empty()) {
        if (!amt::trace::write_chrome_trace_file(cli.trace_file, snap)) {
            std::cerr << "lulesh: cannot write trace file '" << cli.trace_file
                      << "'\n";
            return 1;
        }
        if (!cli.quiet) {
            std::cout << "Trace written to '" << cli.trace_file << "'";
            if (snap.dropped > 0) {
                std::cout << " (" << snap.dropped
                          << " events dropped on ring overflow)";
            }
            std::cout << "\n";
        }
    }
    if (!cli.utilization_report_file.empty()) {
        const auto report = amt::trace::build_utilization(snap);
        if (!amt::trace::write_utilization_file(cli.utilization_report_file,
                                                report)) {
            std::cerr << "lulesh: cannot write utilization report '"
                      << cli.utilization_report_file << "'\n";
            return 1;
        }
        if (!cli.quiet) {
            std::cout << "Utilization report written to '"
                      << cli.utilization_report_file << "'\n";
        }
    }
    return 0;
}

/// Prints the critical-path report and, when requested, writes the JSON
/// twin.  Called while the runtime is still alive but quiescent (after the
/// iteration loop; the compiled graph's accumulators are stable).
int write_critical_path_outputs(const lulesh::taskgraph_driver& drv,
                                std::size_t threads,
                                const lulesh::cli_options& cli) {
    if (drv.compiled() == nullptr) {
        std::cerr << "lulesh: --critical-path-report: no compiled graph "
                     "was built (run at least one iteration)\n";
        return 1;
    }
    const auto report =
        lulesh::analyze_critical_path(*drv.compiled(), threads);
    lulesh::write_critical_path_text(std::cout, report);
    if (!cli.critical_path_json.empty()) {
        std::ofstream os(cli.critical_path_json);
        if (os) lulesh::write_critical_path_json(os, report);
        if (!os) {
            std::cerr << "lulesh: cannot write critical-path JSON '"
                      << cli.critical_path_json << "'\n";
            return 1;
        }
        if (!cli.quiet) {
            std::cout << "Critical-path JSON written to '"
                      << cli.critical_path_json << "'\n";
        }
    }
    return 0;
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
        std::cout << lulesh::usage_text(argv[0]);
        return 0;
    }

    const bool want_trace =
        !cli.trace_file.empty() || !cli.utilization_report_file.empty();
    if (want_trace) {
        // Arm before the runtime exists so every worker registers its ring
        // from the first task on.
        amt::trace::set_thread_name("main");
        amt::trace::arm();
    }

    std::unique_ptr<amt::metrics::reporter> metrics_reporter;
    if (!cli.metrics_file.empty()) {
        // Arms the registry and starts interval snapshots; stopped (with a
        // final flush) after the runtime scope closes below.
        metrics_reporter = std::make_unique<amt::metrics::reporter>(
            amt::metrics::reporter::options{
                cli.metrics_file,
                std::chrono::milliseconds(cli.metrics_interval_ms)});
    }

    const std::size_t threads =
        cli.threads != 0 ? cli.threads
                         : std::max(1u, std::thread::hardware_concurrency());
    const auto parts = cli.partitions.value_or(
        lulesh::partition_sizes::tuned_for(cli.problem.size));

    // The mesh: one domain, or a cluster of --slabs z-slabs (taskgraph
    // only, which parse_cli enforces).
    std::optional<lulesh::domain> dom;
    std::optional<lulesh::dist::cluster> cluster;
    if (cli.slabs == 1) {
        dom.emplace(cli.problem);
    } else {
        cluster.emplace(cli.problem, cli.slabs);
    }
    if (!cli.checkpoint_load.empty()) {
        try {
            if (cluster) {
                lulesh::dist::load_cluster_chains(*cluster,
                                                  cli.checkpoint_load);
            } else {
                lulesh::load_checkpoint_file(*dom, cli.checkpoint_load);
            }
            const lulesh::domain& first = dom ? *dom : cluster->slab(0);
            if (!cli.quiet) {
                std::cout << "Restored checkpoint '" << cli.checkpoint_load
                          << "' at cycle " << first.cycle << ", t = "
                          << first.time_ << "\n";
            }
        } catch (const lulesh::checkpoint_error& err) {
            std::cerr << err.what() << "\n";
            return 1;
        }
    }

    const lulesh::index_t size = cli.problem.size;
    if (!cli.quiet) {
        std::cout << "Running problem size " << size
                  << "^3 per domain until completion\n"
                  << "Num regions: " << cli.problem.num_regions << "\n"
                  << "Num elements: " << size * size * size << "\n"
                  << "Num nodes: " << (size + 1) * (size + 1) * (size + 1)
                  << "\n"
                  << "Driver: " << cli.driver << ", threads: " << threads
                  << ", partitions: " << parts.nodal << "/" << parts.elems;
        if (cluster) std::cout << ", slabs: " << cli.slabs;
        std::cout << "\n\n";
    }

    if (cli.audit_graph) {
        // Prove the barrier elision race-free for this exact mesh and
        // partition decomposition before trusting it with a run, for every
        // slab with its halo tasks.  The model includes the overlapped
        // checkpoint-pack tasks the resilient loop can inject, so the audit
        // also proves packing never races the compute it overlaps.
        std::vector<const lulesh::domain*> slabs;
        for (lulesh::index_t s = 0; s < cli.slabs; ++s) {
            slabs.push_back(dom ? &*dom : &cluster->slab(s));
        }
        const auto audits = lulesh::graph::audit_slabs(slabs, parts);
        std::cout << lulesh::graph::format_audits(audits);
        if (!lulesh::graph::audits_ok(audits)) {
            return lulesh::exit_code_for(lulesh::status::hazard);
        }
    }

    lulesh::run_result result;
    if (cli.driver == "serial") {
        lulesh::serial_driver drv;
        result = run_with(*dom, drv, cli);
    } else if (cli.driver == "parallel_for") {
        ompsim::team team(threads);
        lulesh::parallel_for_driver drv(team);
        result = run_with(*dom, drv, cli);
    } else if (cli.driver == "foreach") {
        amt::runtime rt(threads);
        lulesh::foreach_driver drv(rt);
        result = run_with(*dom, drv, cli);
    } else {
        // Slabs exchange as the performance ledger's dist30 workload does:
        // futurized, under the retry layer and its 2 s progress deadline.
        amt::runtime rt(threads);
        lulesh::taskgraph_driver drv(
            rt, parts, lulesh::taskgraph_driver::exchange_mode::futurized,
            std::chrono::milliseconds(0),
            cluster ? lulesh::dist::retry_policy{}
                    : lulesh::dist::retry_policy::none());
        drv.enable_node_profiling(cli.critical_path_report);
        result = cluster ? run_with(*cluster, drv, cli)
                         : run_with(*dom, drv, cli);
        if (cli.critical_path_report) {
            if (const int rc = write_critical_path_outputs(drv, threads, cli);
                rc != 0) {
                return rc;
            }
        }
    }

    if (metrics_reporter) {
        // Runtime gone, workers joined: the final snapshot is complete.
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

    if (want_trace) {
        // The runtime scopes above have closed: workers are joined, rings
        // quiescent.  Stop recording and flush the outputs.
        amt::trace::disarm();
        if (const int rc = write_trace_outputs(cli); rc != 0) return rc;
    }

    if (!cli.checkpoint_save.empty()) {
        try {
            if (cluster) {
                lulesh::dist::save_cluster_chains(*cluster,
                                                  cli.checkpoint_save);
            } else {
                lulesh::save_checkpoint_file(*dom, cli.checkpoint_save);
            }
            if (!cli.quiet) {
                std::cout << "Checkpoint written to '" << cli.checkpoint_save
                          << "'\n";
            }
        } catch (const lulesh::checkpoint_error& err) {
            std::cerr << err.what() << "\n";
            return 1;
        }
    }

    if (!cli.quiet && dom) {
        std::cout << lulesh::final_report(*dom, result);
    } else if (!cli.quiet) {
        // The whole mesh's energy: the slabs' element planes in z order.
        std::vector<lulesh::real_t> e;
        for (lulesh::index_t s = 0; s < cluster->num_slabs(); ++s) {
            const lulesh::domain& d = cluster->slab(s);
            e.insert(e.end(), d.e.begin(), d.e.begin() + d.numElem());
        }
        std::cout << lulesh::final_report(e, size, result);
    }
    // CSV line per the artifact appendix: size, regions, iterations,
    // threads, runtime, result.
    std::cout << cli.problem.size << "," << cli.problem.num_regions << ","
              << result.cycles << "," << threads << ","
              << result.elapsed_seconds << "," << result.final_origin_energy
              << "\n";
    if (result.run_status != lulesh::status::ok) {
        std::cerr << "run aborted: " << lulesh::status_name(result.run_status);
        if (!result.error_message.empty()) {
            std::cerr << " — " << result.error_message;
        } else {
            std::cerr << " at cycle " << result.cycles << ", dt "
                      << result.final_dt;
        }
        std::cerr << "\n";
    }
    return lulesh::exit_code_for(result.run_status);
}
