// lulesh/options.cpp — command-line parsing for the examples and benchmark
// executables, following the reference binary's flag names.

#include "lulesh/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lulesh {

namespace {

/// Reads `text` as a base-10 integer of the flag's own type T; a value T
/// cannot hold is rejected, never wrapped.
template <class T>
T parse_int(const std::string& flag, const char* text) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0') {
        throw std::invalid_argument("lulesh: flag " + flag +
                                    " expects an integer, got '" + text + "'");
    }
    if (errno == ERANGE || v < std::numeric_limits<T>::min() ||
        v > std::numeric_limits<T>::max()) {
        throw std::invalid_argument("lulesh: flag " + flag + " value '" +
                                    text + "' is out of range");
    }
    return static_cast<T>(v);
}

const char* require_value(const std::string& flag, int argc,
                          const char* const* argv, int& i) {
    if (i + 1 >= argc) {
        throw std::invalid_argument("lulesh: flag " + flag +
                                    " requires a value");
    }
    return argv[++i];
}

}  // namespace

cli_options parse_cli(int argc, const char* const* argv) {
    cli_options cli;
    long threads = 0;
    bool metrics_interval_flag = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-s" || arg == "--s") {
            cli.problem.size =
                parse_int<index_t>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-r" || arg == "--r") {
            cli.problem.num_regions =
                parse_int<index_t>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-i" || arg == "--i") {
            cli.problem.max_cycles =
                parse_int<int>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-b" || arg == "--b") {
            cli.problem.balance =
                parse_int<int>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-c" || arg == "--c") {
            cli.problem.cost =
                parse_int<int>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-t" || arg == "--t" || arg == "--threads") {
            threads = parse_int<long>(arg, require_value(arg, argc, argv, i));
        } else if (arg == "-d" || arg == "--d" || arg == "--driver") {
            cli.driver = require_value(arg, argc, argv, i);
            if (cli.driver != "serial" && cli.driver != "parallel_for" &&
                cli.driver != "taskgraph" && cli.driver != "foreach") {
                throw std::invalid_argument(
                    "lulesh: unknown driver '" + cli.driver +
                    "' (expected serial|parallel_for|taskgraph|foreach)");
            }
        } else if (arg == "-p" || arg == "--p" || arg == "--partitions") {
            partition_sizes p;
            p.nodal = parse_int<index_t>(
                arg, require_value(arg, argc, argv, i));
            p.elems = parse_int<index_t>(
                arg, require_value(arg, argc, argv, i));
            cli.partitions = p;
        } else if (arg == "--checkpoint-save") {
            cli.checkpoint_save = require_value(arg, argc, argv, i);
        } else if (arg == "--checkpoint-load") {
            cli.checkpoint_load = require_value(arg, argc, argv, i);
        } else if (arg == "--checkpoint-every") {
            cli.checkpoint_every = parse_int<int>(
                arg, require_value(arg, argc, argv, i));
        } else if (arg == "--retries") {
            cli.max_retries = parse_int<int>(
                arg, require_value(arg, argc, argv, i));
        } else if (arg == "--halo-timeout") {
            cli.halo_timeout_ms = parse_int<int>(
                arg, require_value(arg, argc, argv, i));
        } else if (arg.rfind("--halo-timeout=", 0) == 0) {
            cli.halo_timeout_ms = parse_int<int>(
                "--halo-timeout",
                arg.substr(std::string("--halo-timeout=").size()).c_str());
        } else if (arg == "--max-recoveries") {
            cli.max_recoveries = parse_int<int>(
                arg, require_value(arg, argc, argv, i));
        } else if (arg == "--audit-graph") {
            cli.audit_graph = true;
        } else if (arg == "--trace") {
            cli.trace_file = require_value(arg, argc, argv, i);
        } else if (arg.rfind("--trace=", 0) == 0) {
            cli.trace_file = arg.substr(std::string("--trace=").size());
            if (cli.trace_file.empty()) {
                throw std::invalid_argument(
                    "lulesh: --trace requires a non-empty file name");
            }
        } else if (arg == "--utilization-report") {
            cli.utilization_report_file = require_value(arg, argc, argv, i);
        } else if (arg.rfind("--utilization-report=", 0) == 0) {
            cli.utilization_report_file =
                arg.substr(std::string("--utilization-report=").size());
            if (cli.utilization_report_file.empty()) {
                throw std::invalid_argument(
                    "lulesh: --utilization-report requires a non-empty file "
                    "name");
            }
        } else if (arg == "--metrics") {
            cli.metrics_file = "metrics.json";
        } else if (arg.rfind("--metrics=", 0) == 0) {
            cli.metrics_file = arg.substr(std::string("--metrics=").size());
            if (cli.metrics_file.empty()) {
                throw std::invalid_argument(
                    "lulesh: --metrics= requires a non-empty file name "
                    "(bare --metrics defaults to metrics.json)");
            }
        } else if (arg == "--metrics-interval") {
            cli.metrics_interval_ms = parse_int<int>(
                arg, require_value(arg, argc, argv, i));
            metrics_interval_flag = true;
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            cli.metrics_interval_ms = parse_int<int>(
                "--metrics-interval",
                arg.substr(std::string("--metrics-interval=").size())
                    .c_str());
            metrics_interval_flag = true;
        } else if (arg == "--critical-path-report") {
            cli.critical_path_report = true;
        } else if (arg.rfind("--critical-path-report=", 0) == 0) {
            cli.critical_path_report = true;
            cli.critical_path_json =
                arg.substr(std::string("--critical-path-report=").size());
            if (cli.critical_path_json.empty()) {
                throw std::invalid_argument(
                    "lulesh: --critical-path-report= requires a non-empty "
                    "file name (bare --critical-path-report prints text "
                    "only)");
            }
        } else if (arg == "-q" || arg == "--q" || arg == "--quiet") {
            cli.quiet = true;
        } else if (arg == "-h" || arg == "--help") {
            cli.show_help = true;
        } else {
            throw std::invalid_argument("lulesh: unknown flag '" + arg + "'");
        }
    }
    if (cli.problem.size < 1) {
        throw std::invalid_argument("lulesh: -s must be >= 1");
    }
    if (cli.problem.num_regions < 1) {
        throw std::invalid_argument("lulesh: -r must be >= 1");
    }
    if (cli.problem.max_cycles < 1) {
        throw std::invalid_argument("lulesh: -i must be >= 1");
    }
    if (threads < 0) {
        throw std::invalid_argument("lulesh: -t must be >= 0");
    }
    cli.threads = static_cast<std::size_t>(threads);
    if (cli.checkpoint_every < 0) {
        throw std::invalid_argument("lulesh: --checkpoint-every must be >= 0");
    }
    if (cli.max_retries < 0) {
        throw std::invalid_argument("lulesh: --retries must be >= 0");
    }
    if (cli.halo_timeout_ms < 0) {
        throw std::invalid_argument("lulesh: --halo-timeout must be >= 0");
    }
    if (cli.max_recoveries < 0) {
        throw std::invalid_argument("lulesh: --max-recoveries must be >= 0");
    }
    if (cli.partitions &&
        (cli.partitions->nodal < 1 || cli.partitions->elems < 1)) {
        throw std::invalid_argument("lulesh: -p sizes must be >= 1");
    }
    if (cli.audit_graph &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --audit-graph audits the pre-built task graph, which "
            "driver '" + cli.driver + "' never spawns — use taskgraph or "
            "foreach");
    }
    if (cli.halo_timeout_ms > 0 &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --halo-timeout guards the distributed halo exchange, "
            "which driver '" + cli.driver +
            "' never performs — use taskgraph or foreach");
    }
    if ((!cli.trace_file.empty() || !cli.utilization_report_file.empty()) &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --trace/--utilization-report observe scheduler tasks, "
            "which driver '" + cli.driver +
            "' never spawns — use taskgraph or foreach");
    }
    // Same driver rule as the tracer: the registry's instrumented sites
    // live in the scheduler.
    if (!cli.metrics_file.empty() &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --metrics samples scheduler task metrics, which driver '" +
            cli.driver + "' never produces — use taskgraph or foreach");
    }
    if (metrics_interval_flag && cli.metrics_file.empty()) {
        throw std::invalid_argument(
            "lulesh: --metrics-interval paces the metrics reporter — "
            "combine it with --metrics[=PATH]");
    }
    if (cli.metrics_interval_ms < 1) {
        throw std::invalid_argument(
            "lulesh: --metrics-interval must be >= 1 (milliseconds)");
    }
    if (cli.critical_path_report && cli.driver != "taskgraph") {
        throw std::invalid_argument(
            "lulesh: --critical-path-report profiles the compiled iteration "
            "graph, which driver '" + cli.driver +
            "' never compiles — use taskgraph");
    }
    return cli;
}

std::string usage_text(const std::string& program) {
    std::ostringstream os;
    os << "Usage: " << program << " [options]\n"
       << "  -s <n>          problem size (elements per edge, default 30)\n"
       << "  -r <n>          number of material regions (default 11)\n"
       << "  -i <n>          iteration cap (default: run to stoptime)\n"
       << "  -b <n>          region balance exponent (default 1)\n"
       << "  -c <n>          region cost multiplier (default 1)\n"
       << "  -d <driver>     serial | parallel_for | taskgraph | foreach\n"
       << "  -t <n>          execution threads (default: hardware)\n"
       << "  -p <nod> <el>   task partition sizes (default: paper Table I)\n"
       << "  -q              quiet (suppress per-run banner)\n"
       << "  --checkpoint-save <path>   write a checkpoint after the run\n"
       << "  --checkpoint-load <path>   restore state before the run\n"
       << "  --checkpoint-every <k>     resilient mode: checkpoint every k\n"
       << "                             cycles, roll back + retry on faults\n"
       << "                             (k = 0: entry-snapshot-only — faults\n"
       << "                             roll back to the run's start state)\n"
       << "  --retries <n>   retry budget per incident (default 3)\n"
       << "  --halo-timeout <ms>        distributed runs: fail the halo\n"
       << "                             fabric after <ms> of zero progress\n"
       << "                             (status: stalled) instead of hanging\n"
       << "                             on a dead slab (0 = no deadline;\n"
       << "                             needs a task-spawning driver)\n"
       << "  --max-recoveries <n>       distributed resilient mode: bound\n"
       << "                             coordinated rollback-and-replay\n"
       << "                             attempts per incident (default 3)\n"
       << "  --audit-graph   statically audit the task graph for unordered\n"
       << "                  read-write/write-write overlaps before running\n"
       << "                  (needs a task-graph driver)\n"
       << "  --trace <file>  record per-task trace events and write a Chrome\n"
       << "                  trace-event JSON (load in Perfetto / chrome://\n"
       << "                  tracing; needs a task-spawning driver)\n"
       << "  --utilization-report <file>\n"
       << "                  write a per-phase utilization report (.json →\n"
       << "                  JSON, else text)\n"
       << "  --metrics[=<file>]\n"
       << "                  arm the metrics registry and write interval\n"
       << "                  snapshots to <file> (default metrics.json;\n"
       << "                  .prom → Prometheus text rewritten per\n"
       << "                  interval, else JSON lines; needs a\n"
       << "                  task-spawning driver)\n"
       << "  --metrics-interval <ms>    reporter snapshot cadence (default\n"
       << "                             1000; needs --metrics)\n"
       << "  --critical-path-report[=<file>]\n"
       << "                  profile compiled-graph nodes and print the\n"
       << "                  critical-path report (path length, per-phase\n"
       << "                  slack, top tasks) after the run; =<file> also\n"
       << "                  writes it as JSON (needs the taskgraph\n"
       << "                  driver in replay mode)\n"
       << "  -h              this help\n"
       << "Exit codes: 0 ok, 1 usage, 2 volume error, 3 qstop exceeded,\n"
       << "            4 task fault, 5 stalled, 6 graph hazard,\n"
       << "            7 data corruption\n";
    return os.str();
}

}  // namespace lulesh
