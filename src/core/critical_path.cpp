// core/critical_path.cpp — phase binning and report writers on top of
// amt::profile_graph.  Cold path, allocation unconstrained.

#include "core/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "amt/graph_profile.hpp"
#include "amt/json.hpp"

namespace lulesh {

namespace {

/// Durations cross the text/JSON boundary as integer nanoseconds so the
/// round-trip validator can compare exactly; speedup/parallelism use a
/// fixed 4-decimal rendering for the same reason.
std::int64_t ns(double v) { return std::llround(v); }

void write_ratio(std::ostream& os, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", v);
    os << buf;
}

void write_task_json(std::ostream& os, const char* stage_name,
                     const critical_path_report::task_stats& t) {
    os << "{\"label\":\"" << amt::json_escape(t.label) << "\",\"arg\":"
       << t.arg << ",\"stage\":\"" << stage_name << "\",\"mean_ns\":"
       << ns(t.mean_ns) << ",\"runs\":" << t.runs << ",\"critical\":" << (t.on_critical_path ? "true" : "false") << '}';
}

const char* stage_name(int stage) {
    return stage >= 0 && stage < static_cast<int>(phase_profile::num_phases)
               ? phase_profile::name(static_cast<std::size_t>(stage))
               : "barrier";
}

}  // namespace

critical_path_report analyze_critical_path(
    const graph::compiled_iteration& ci, std::size_t workers,
    std::size_t top_k) {
    const amt::static_graph& g = ci.graph();
    const amt::graph_profile prof = amt::profile_graph(g);
    const std::size_t n = g.node_count();

    critical_path_report r;
    r.workers = workers > 0 ? workers : 1;
    r.nodes = n;
    r.work_ns = prof.work_ns;
    r.critical_path_ns = prof.critical_path_ns;
    r.ideal_speedup = prof.ideal_speedup;
    // One barrier executes exactly once per replay, so its timed-run count
    // IS the number of profiled iterations behind every mean.
    r.iterations = g.node_timed_runs(
        ci.barrier_id(graph::compiled_iteration::num_barriers - 1));

    std::vector<int> stage(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        stage[i] =
            ci.node_stage(static_cast<amt::static_graph::node_id>(i));
    }

    // Per-phase work and within-phase longest chain: one more Kahn pass,
    // propagating chain length only along edges that stay inside a phase
    // (barrier-crossing edges belong to the global critical path).
    std::vector<double> chain(n, 0.0);
    std::vector<std::uint32_t> indeg(n);
    std::vector<amt::static_graph::node_id> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<amt::static_graph::node_id>(i);
        indeg[i] = g.dependency_count(id);
        chain[i] = prof.nodes[i].mean_ns;
        if (indeg[i] == 0) ready.push_back(id);
    }
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
        r.phases[p].name = phase_profile::name(p);
    }
    for (std::size_t head = 0; head < ready.size(); ++head) {
        const auto v = ready[head];
        if (stage[v] >= 0) {
            auto& ph = r.phases[static_cast<std::size_t>(stage[v])];
            ph.tasks += 1;
            ph.work_ns += prof.nodes[v].mean_ns;
            ph.chain_ns = std::max(ph.chain_ns, chain[v]);
        }
        for (const auto s : g.successors(v)) {
            if (stage[s] == stage[v] && stage[v] >= 0) {
                chain[s] = std::max(chain[s],
                                    chain[v] + prof.nodes[s].mean_ns);
            }
            if (--indeg[s] == 0) ready.push_back(s);
        }
    }
    for (auto& ph : r.phases) {
        ph.parallelism = ph.chain_ns > 0.0 ? ph.work_ns / ph.chain_ns : 0.0;
        ph.slack_ns = std::max(
            0.0, ph.chain_ns - ph.work_ns / static_cast<double>(r.workers));
    }

    auto to_stats = [&](const amt::profiled_node& pn) {
        critical_path_report::task_stats t;
        t.label = pn.label;
        t.arg = pn.arg;
        t.stage = stage[pn.id];
        t.mean_ns = pn.mean_ns;
        t.runs = pn.runs;
        t.on_critical_path = pn.on_critical_path;
        return t;
    };
    for (const auto id : prof.critical_path) {
        r.critical_path.push_back(to_stats(prof.nodes[id]));
    }
    for (const auto& pn : prof.top(top_k)) {
        r.top.push_back(to_stats(pn));
    }
    return r;
}

void write_critical_path_text(std::ostream& os,
                              const critical_path_report& r) {
    os << "critical-path report: " << r.iterations
       << " profiled iterations, " << r.workers << " workers, " << r.nodes
       << " nodes\n";
    if (r.iterations == 0) {
        os << "  (no profiled replays — the profile window is empty)\n";
        return;
    }
    os << "  iteration work:  " << ns(r.work_ns) << " ns\n";
    os << "  critical path:   " << ns(r.critical_path_ns) << " ns over "
       << r.critical_path.size() << " nodes\n";
    os << "  ideal speedup:   ";
    write_ratio(os, r.ideal_speedup);
    os << "x\n";
    os << "  phase        tasks       work_ns      chain_ns  parallelism"
          "      slack_ns\n";
    for (const auto& ph : r.phases) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "  %-12s %5zu %13lld %13lld %12.4f %13lld\n", ph.name,
                      ph.tasks, static_cast<long long>(ns(ph.work_ns)),
                      static_cast<long long>(ns(ph.chain_ns)),
                      ph.parallelism,
                      static_cast<long long>(ns(ph.slack_ns)));
        os << line;
    }
    os << "  top tasks by mean cost:\n";
    for (std::size_t i = 0; i < r.top.size(); ++i) {
        const auto& t = r.top[i];
        os << "    " << (i + 1) << ". " << t.label;
        if (t.arg >= 0) os << '[' << t.arg << ']';
        os << " stage=" << stage_name(t.stage)
           << " mean_ns=" << ns(t.mean_ns) << " runs=" << t.runs;
        if (t.on_critical_path) os << " critical";
        os << '\n';
    }
}

void write_critical_path_json(std::ostream& os,
                              const critical_path_report& r) {
    os << "{\"experiment\":\"critical_path\",\"iterations\":" << r.iterations
       << ",\"workers\":" << r.workers << ",\"nodes\":" << r.nodes
       << ",\"work_ns\":" << ns(r.work_ns)
       << ",\"critical_path_ns\":" << ns(r.critical_path_ns)
       << ",\"critical_path_len\":" << r.critical_path.size()
       << ",\"ideal_speedup\":";
    write_ratio(os, r.ideal_speedup);
    os << ",\"phases\":[";
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
        const auto& ph = r.phases[p];
        if (p != 0) os << ',';
        os << "{\"name\":\"" << ph.name << "\",\"tasks\":" << ph.tasks
           << ",\"work_ns\":" << ns(ph.work_ns)
           << ",\"chain_ns\":" << ns(ph.chain_ns) << ",\"parallelism\":";
        write_ratio(os, ph.parallelism);
        os << ",\"slack_ns\":" << ns(ph.slack_ns) << '}';
    }
    os << "],\"critical_path\":[";
    for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
        if (i != 0) os << ',';
        write_task_json(os, stage_name(r.critical_path[i].stage),
                        r.critical_path[i]);
    }
    os << "],\"top\":[";
    for (std::size_t i = 0; i < r.top.size(); ++i) {
        if (i != 0) os << ',';
        write_task_json(os, stage_name(r.top[i].stage), r.top[i]);
    }
    os << "]}";
}

}  // namespace lulesh
