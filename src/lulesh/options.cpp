// lulesh/options.cpp — command-line parsing for the examples and benchmark
// executables, following the reference binary's flag names.

#include "lulesh/options.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace lulesh {

namespace {

long parse_long(const std::string& flag, const char* text) {
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0') {
        throw std::invalid_argument("lulesh: flag " + flag +
                                    " expects an integer, got '" + text + "'");
    }
    return v;
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
    return parse_cli(argc, argv,
                     [](const char* name) -> const char* {
                         return std::getenv(name);
                     });
}

cli_options parse_cli(int argc, const char* const* argv, env_lookup env) {
    cli_options cli;
    bool halo_timeout_flag = false;
    bool metrics_interval_flag = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-s" || arg == "--s") {
            cli.problem.size =
                static_cast<index_t>(parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "-r" || arg == "--r") {
            cli.problem.num_regions =
                static_cast<index_t>(parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "-i" || arg == "--i") {
            cli.problem.max_cycles =
                static_cast<int>(parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "-b" || arg == "--b") {
            cli.problem.balance =
                static_cast<int>(parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "-c" || arg == "--c") {
            cli.problem.cost =
                static_cast<int>(parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "-t" || arg == "--t" || arg == "--threads") {
            cli.threads = static_cast<std::size_t>(
                parse_long(arg, require_value(arg, argc, argv, i)));
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
            p.nodal = static_cast<index_t>(
                parse_long(arg, require_value(arg, argc, argv, i)));
            p.elems = static_cast<index_t>(
                parse_long(arg, require_value(arg, argc, argv, i)));
            cli.partitions = p;
        } else if (arg == "--checkpoint-save") {
            cli.checkpoint_save = require_value(arg, argc, argv, i);
        } else if (arg == "--checkpoint-load") {
            cli.checkpoint_load = require_value(arg, argc, argv, i);
        } else if (arg == "--checkpoint-every") {
            cli.checkpoint_every = static_cast<int>(
                parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "--retries") {
            cli.max_retries = static_cast<int>(
                parse_long(arg, require_value(arg, argc, argv, i)));
        } else if (arg == "--halo-timeout") {
            cli.halo_timeout_ms = static_cast<int>(
                parse_long(arg, require_value(arg, argc, argv, i)));
            halo_timeout_flag = true;
        } else if (arg.rfind("--halo-timeout=", 0) == 0) {
            cli.halo_timeout_ms = static_cast<int>(parse_long(
                "--halo-timeout",
                arg.substr(std::string("--halo-timeout=").size()).c_str()));
            halo_timeout_flag = true;
        } else if (arg == "--max-recoveries") {
            cli.max_recoveries = static_cast<int>(
                parse_long(arg, require_value(arg, argc, argv, i)));
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
            cli.metrics_interval_ms = static_cast<int>(
                parse_long(arg, require_value(arg, argc, argv, i)));
            metrics_interval_flag = true;
        } else if (arg.rfind("--metrics-interval=", 0) == 0) {
            cli.metrics_interval_ms = static_cast<int>(parse_long(
                "--metrics-interval",
                arg.substr(std::string("--metrics-interval=").size())
                    .c_str()));
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
    if (const char* raw = env("LULESH_AUDIT_GRAPH");
        raw != nullptr && *raw != '\0') {
        const std::string v = raw;
        if (v == "1") {
            cli.audit_graph = true;
        } else if (v != "0") {
            throw std::invalid_argument(
                "lulesh: LULESH_AUDIT_GRAPH must be empty, 0, or 1, got '" +
                v + "'");
        }
    }
    if (cli.audit_graph &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --audit-graph (or LULESH_AUDIT_GRAPH=1) audits the "
            "pre-built task graph, which driver '" + cli.driver +
            "' never spawns — use taskgraph or foreach");
    }
    // Environment twin of --halo-timeout.  The value must parse as a
    // non-negative integer (milliseconds); the explicit flag wins.
    if (const char* raw = env("LULESH_HALO_TIMEOUT");
        raw != nullptr && *raw != '\0' && !halo_timeout_flag) {
        const long v = parse_long("LULESH_HALO_TIMEOUT", raw);
        if (v < 0) {
            throw std::invalid_argument(
                "lulesh: LULESH_HALO_TIMEOUT must be >= 0, got '" +
                std::string(raw) + "'");
        }
        cli.halo_timeout_ms = static_cast<int>(v);
    }
    if (cli.halo_timeout_ms > 0 &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --halo-timeout (or LULESH_HALO_TIMEOUT) guards the "
            "distributed halo exchange, which driver '" + cli.driver +
            "' never performs — use taskgraph or foreach");
    }
    // Environment twins of --trace / --utilization-report.  A non-empty
    // value is an output path; the explicit flag takes precedence.
    if (const char* raw = env("LULESH_TRACE");
        raw != nullptr && *raw != '\0' && cli.trace_file.empty()) {
        cli.trace_file = raw;
    }
    if (const char* raw = env("LULESH_UTILIZATION_REPORT");
        raw != nullptr && *raw != '\0' &&
        cli.utilization_report_file.empty()) {
        cli.utilization_report_file = raw;
    }
    if ((!cli.trace_file.empty() || !cli.utilization_report_file.empty()) &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --trace/--utilization-report (or LULESH_TRACE/"
            "LULESH_UTILIZATION_REPORT) observe scheduler tasks, which "
            "driver '" + cli.driver +
            "' never spawns — use taskgraph or foreach");
    }
    // Environment twin of --metrics; a non-empty value is the reporter
    // path, the explicit flag wins.  Same driver rule as the tracer: the
    // registry's instrumented sites live in the scheduler.
    if (const char* raw = env("LULESH_METRICS");
        raw != nullptr && *raw != '\0' && cli.metrics_file.empty()) {
        cli.metrics_file = raw;
    }
    if (!cli.metrics_file.empty() &&
        (cli.driver == "serial" || cli.driver == "parallel_for")) {
        throw std::invalid_argument(
            "lulesh: --metrics (or LULESH_METRICS) samples scheduler task "
            "metrics, which driver '" + cli.driver +
            "' never produces — use taskgraph or foreach");
    }
    if (metrics_interval_flag && cli.metrics_file.empty()) {
        throw std::invalid_argument(
            "lulesh: --metrics-interval paces the metrics reporter — "
            "combine it with --metrics[=PATH] or LULESH_METRICS");
    }
    if (cli.metrics_interval_ms < 1) {
        throw std::invalid_argument(
            "lulesh: --metrics-interval must be >= 1 (milliseconds)");
    }
    // Environment twin of --critical-path-report: "1" → text-only report,
    // any other non-empty non-"0" value → JSON output path too.
    if (const char* raw = env("LULESH_CRITICAL_PATH_REPORT");
        raw != nullptr && *raw != '\0' && std::string(raw) != "0" &&
        !cli.critical_path_report) {
        cli.critical_path_report = true;
        if (std::string(raw) != "1") cli.critical_path_json = raw;
    }
    if (cli.critical_path_report) {
        if (cli.driver != "taskgraph") {
            throw std::invalid_argument(
                "lulesh: --critical-path-report (or "
                "LULESH_CRITICAL_PATH_REPORT) profiles the compiled "
                "iteration graph, which driver '" + cli.driver +
                "' never compiles — use taskgraph");
        }
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
       << "                             on a dead slab (0 = no deadline; env\n"
       << "                             twin: LULESH_HALO_TIMEOUT, flag\n"
       << "                             wins; needs a task-spawning driver)\n"
       << "  --max-recoveries <n>       distributed resilient mode: bound\n"
       << "                             coordinated rollback-and-replay\n"
       << "                             attempts per incident (default 3)\n"
       << "  --audit-graph   statically audit the task graph for unordered\n"
       << "                  read-write/write-write overlaps before running\n"
       << "                  (env twin: LULESH_AUDIT_GRAPH=1; needs a\n"
       << "                  task-graph driver)\n"
       << "  --trace <file>  record per-task trace events and write a Chrome\n"
       << "                  trace-event JSON (load in Perfetto / chrome://\n"
       << "                  tracing; env twin: LULESH_TRACE=<file>; needs a\n"
       << "                  task-spawning driver)\n"
       << "  --utilization-report <file>\n"
       << "                  write a per-phase utilization report (.json →\n"
       << "                  JSON, else text; env twin:\n"
       << "                  LULESH_UTILIZATION_REPORT=<file>)\n"
       << "  --metrics[=<file>]\n"
       << "                  arm the metrics registry and write interval\n"
       << "                  snapshots to <file> (default metrics.json;\n"
       << "                  .prom → Prometheus text rewritten per\n"
       << "                  interval, else JSON lines; env twin:\n"
       << "                  LULESH_METRICS=<file>, flag wins; needs a\n"
       << "                  task-spawning driver)\n"
       << "  --metrics-interval <ms>    reporter snapshot cadence (default\n"
       << "                             1000; needs --metrics)\n"
       << "  --critical-path-report[=<file>]\n"
       << "                  profile compiled-graph nodes and print the\n"
       << "                  critical-path report (path length, per-phase\n"
       << "                  slack, top tasks) after the run; =<file> also\n"
       << "                  writes it as JSON (env twin:\n"
       << "                  LULESH_CRITICAL_PATH_REPORT=1|<file>; needs\n"
       << "                  the taskgraph driver in replay mode)\n"
       << "  -h              this help\n"
       << "Exit codes: 0 ok, 1 usage, 2 volume error, 3 qstop exceeded,\n"
       << "            4 task fault, 5 stalled, 6 graph hazard,\n"
       << "            7 data corruption\n";
    return os.str();
}

}  // namespace lulesh
