// core/critical_path.cpp — the longest-path analysis of a profiled
// compiled iteration and the report writers.  Cold path, allocation
// unconstrained.

#include "core/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

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
    using node_id = amt::static_graph::node_id;
    const amt::static_graph& g = ci.graph();
    const std::size_t n = g.node_count();

    critical_path_report r;
    r.workers = workers > 0 ? workers : 1;
    r.nodes = n;
    // One barrier executes exactly once per replay, so its timed-run count
    // IS the number of profiled iterations behind every mean.
    r.iterations = g.node_timed_runs(
        ci.barrier_id(graph::compiled_iteration::num_barriers - 1));

    // Per-node means (nodes never timed weigh zero; their edges still
    // count) and the iteration's work, summed in node order.
    std::vector<critical_path_report::task_stats> node(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<node_id>(i);
        auto& t = node[i];
        t.label = g.node_label(id);
        t.arg = g.node_arg(id);
        t.stage = ci.node_stage(id);
        t.runs = g.node_timed_runs(id);
        t.mean_ns = t.runs > 0 ? static_cast<double>(g.node_time_ns(id)) /
                                     static_cast<double>(t.runs)
                               : 0.0;
        r.work_ns += t.mean_ns;
    }

    // One Kahn-order pass over the sealed CSR topology computes both
    // longest paths: `dist`, the longest mean-weighted chain ending at a
    // node (its argmax edge in `best_pred`), and `chain`, the longest one
    // that stays inside the node's phase — edges crossing a barrier belong
    // to the global path only.  A phase's chain is its longest `chain`.
    constexpr auto no_pred = ~node_id{0};
    std::vector<double> dist(n);
    std::vector<double> chain(n);
    std::vector<node_id> best_pred(n, no_pred);
    std::vector<std::uint32_t> indeg(n);
    std::vector<node_id> ready;
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<node_id>(i);
        indeg[i] = g.dependency_count(id);
        dist[i] = chain[i] = node[i].mean_ns;
        if (indeg[i] == 0) ready.push_back(id);
    }
    for (std::size_t p = 0; p < r.phases.size(); ++p) {
        r.phases[p].name = phase_profile::name(p);
    }
    for (std::size_t head = 0; head < ready.size(); ++head) {
        const node_id v = ready[head];
        const int stage = node[v].stage;
        if (stage >= 0) {
            auto& ph = r.phases[static_cast<std::size_t>(stage)];
            ph.tasks += 1;
            ph.work_ns += node[v].mean_ns;
            ph.chain_ns = std::max(ph.chain_ns, chain[v]);
        }
        for (const node_id s : g.successors(v)) {
            const double through = dist[v] + node[s].mean_ns;
            if (through > dist[s]) {
                dist[s] = through;
                best_pred[s] = v;
            }
            if (stage >= 0 && node[s].stage == stage) {
                chain[s] = std::max(chain[s], chain[v] + node[s].mean_ns);
            }
            if (--indeg[s] == 0) ready.push_back(s);
        }
    }
    for (auto& ph : r.phases) {
        ph.parallelism = ph.chain_ns > 0.0 ? ph.work_ns / ph.chain_ns : 0.0;
        ph.slack_ns = std::max(
            0.0, ph.chain_ns - ph.work_ns / static_cast<double>(r.workers));
    }

    // The critical path ends at the first node with the longest `dist`.
    node_id sink = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (dist[i] > dist[sink]) sink = static_cast<node_id>(i);
    }
    r.critical_path_ns = dist[sink];
    r.ideal_speedup =
        r.critical_path_ns > 0.0 ? r.work_ns / r.critical_path_ns : 1.0;
    for (node_id v = sink; v != no_pred; v = best_pred[v]) {
        node[v].on_critical_path = true;
        r.critical_path.push_back(node[v]);
    }
    std::reverse(r.critical_path.begin(), r.critical_path.end());

    // Top-k by mean cost, descending; the stable sort leaves ties in node
    // order.
    r.top = std::move(node);
    std::stable_sort(r.top.begin(), r.top.end(),
                     [](const auto& a, const auto& b) {
                         return a.mean_ns > b.mean_ns;
                     });
    if (r.top.size() > top_k) r.top.resize(top_k);
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
