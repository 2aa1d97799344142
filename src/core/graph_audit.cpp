// core/graph_audit.cpp — exact overlap audit over the declarative model.
//
// Per barrier interval (stage) the auditor replays every declared access
// into per-field writer maps:
//
//   phase A: every write access stamps its expanded indices with the task
//            id.  Two unordered tasks stamping the same index is a
//            write-write hazard.  When the tasks *are* ordered the
//            later-ordered task's stamp wins, so a subsequent reader is
//            checked against the final writer of the chain.
//   phase B: every read access probes the writer map.  A foreign writer
//            without an ordering path to/from the reader is a read-write
//            hazard.  (Either direction suffices: an ordered pair cannot
//            race, whichever way the edge points.)
//
// Cross-stage overlaps need no checking: the surviving barriers
// order stage i entirely before stage i+1.  Intra-stage ordering is the
// transitive closure of the declared continuation edges, computed as
// ancestor bitsets (tasks are created in spawn order, so dependency ids are
// always smaller than the dependent's id).
//
// Hazards are coalesced per (kind, field, task pair) into the min/max
// offending index range — a whole overlapping interval reports once.

#include "core/graph_audit.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace lulesh::graph {

namespace {

/// Flat bitset matrix: row t holds the ancestors of task t.
class ancestor_table {
public:
    explicit ancestor_table(std::size_t n)
        : n_(n), words_((n + 63) / 64), bits_(n_ * words_, 0) {}

    void add_edge(int from, int to) {  // `from` ordered before `to`
        const std::size_t t = static_cast<std::size_t>(to);
        const std::size_t f = static_cast<std::size_t>(from);
        bits_[t * words_ + f / 64] |= std::uint64_t{1} << (f % 64);
        // Transitive: to inherits from's ancestors.  from < to always holds
        // (spawn order), so from's row is already complete.
        for (std::size_t w = 0; w < words_; ++w) {
            bits_[t * words_ + w] |= bits_[f * words_ + w];
        }
    }

    [[nodiscard]] bool has(int task, int ancestor) const {
        const std::size_t t = static_cast<std::size_t>(task);
        const std::size_t a = static_cast<std::size_t>(ancestor);
        return (bits_[t * words_ + a / 64] >> (a % 64)) & 1u;
    }

    [[nodiscard]] bool ordered(int a, int b) const {
        return has(a, b) || has(b, a);
    }

private:
    std::size_t n_;
    std::size_t words_;
    std::vector<std::uint64_t> bits_;
};

struct hazard_key {
    hazard_report::kind k;
    field f;
    int a;
    int b;

    bool operator<(const hazard_key& o) const {
        return std::tie(k, f, a, b) < std::tie(o.k, o.f, o.a, o.b);
    }
};

}  // namespace

std::string hazard_report::describe(const graph_model& m) const {
    const auto& ta = m.tasks[static_cast<std::size_t>(task_a)];
    const auto& tb = m.tasks[static_cast<std::size_t>(task_b)];
    std::ostringstream os;
    os << (k == kind::write_write ? "write-write" : "read-write")
       << " hazard on " << field_name(f) << " [" << lo << ", " << hi
       << "): " << ta.site << "[" << ta.partition << "] vs " << tb.site << "["
       << tb.partition << "] (stage " << ta.stage << ", no ordering edge)";
    return os.str();
}

audit_result audit_graph(const graph_model& m, const domain& d) {
    audit_result res;
    res.tasks = m.tasks.size();

    ancestor_table anc(m.tasks.size());
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
        for (int dep : m.tasks[t].deps) {
            anc.add_edge(dep, static_cast<int>(t));
            ++res.edges;
        }
    }

    std::map<hazard_key, std::pair<std::int64_t, std::int64_t>> coalesced;
    auto report = [&](hazard_report::kind k, field f, int a, int b,
                      std::int64_t idx) {
        if (a > b) std::swap(a, b);
        auto [it, fresh] = coalesced.try_emplace(hazard_key{k, f, a, b},
                                                 idx, idx + 1);
        if (!fresh) {
            it->second.first = std::min(it->second.first, idx);
            it->second.second = std::max(it->second.second, idx + 1);
        }
    };

    // Writer maps are reused across fields and stages; `stamp` tags entries
    // so a fresh (stage, field) pass needs no O(extent) clear.
    struct writer_entry {
        std::uint32_t stamp = 0;
        int task = -1;
    };
    std::vector<std::vector<writer_entry>> writers(num_fields);
    std::vector<std::uint32_t> field_stamp(num_fields, 0);
    std::uint32_t stamp = 0;

    // A task occupies the stage range [stage, stage_last] (stage_last < 0
    // means the single stage it was declared in).  Checkpoint pack tasks
    // span stages — they run concurrently with every wave up to the barrier
    // they are joined into — so their accesses participate in every stage
    // of the range.
    const auto in_stage = [](const task_decl& td, int s) {
        const int last = td.stage_last < 0 ? td.stage : td.stage_last;
        return s >= td.stage && s <= last;
    };

    for (int s = 0; s < m.num_stages; ++s) {
        ++stamp;
        for (std::size_t t = 0; t < m.tasks.size(); ++t) {
            const task_decl& td = m.tasks[t];
            if (!in_stage(td, s)) continue;
            for (const access& a : td.accesses) {
                if (a.m != mode::write) continue;
                ++res.accesses;
                const auto fi = static_cast<std::size_t>(a.f);
                auto& w = writers[fi];
                if (field_stamp[fi] != stamp) {
                    field_stamp[fi] = stamp;
                    w.assign(space_extent(field_space(a.f), d, m.num_slots),
                             writer_entry{});
                }
                const int self = static_cast<int>(t);
                expand_access(a, d, [&](index_t i) {
                    ++res.indices_stamped;
                    writer_entry& e = w[static_cast<std::size_t>(i)];
                    if (e.stamp == stamp && e.task != self) {
                        if (!anc.ordered(e.task, self)) {
                            report(hazard_report::kind::write_write, a.f,
                                   e.task, self, i);
                        } else if (anc.has(self, e.task)) {
                            // self is ordered after the recorded writer:
                            // readers must be checked against the chain's
                            // last writer.
                            e.task = self;
                        }
                        return;
                    }
                    e.stamp = stamp;
                    e.task = self;
                });
            }
        }
        for (std::size_t t = 0; t < m.tasks.size(); ++t) {
            const task_decl& td = m.tasks[t];
            if (!in_stage(td, s)) continue;
            for (const access& a : td.accesses) {
                if (a.m != mode::read) continue;
                ++res.accesses;
                const auto fi = static_cast<std::size_t>(a.f);
                if (field_stamp[fi] != stamp) continue;  // no writers: clean
                auto& w = writers[fi];
                const int self = static_cast<int>(t);
                expand_access(a, d, [&](index_t i) {
                    ++res.indices_stamped;
                    const writer_entry& e = w[static_cast<std::size_t>(i)];
                    if (e.stamp == stamp && e.task != self &&
                        !anc.ordered(e.task, self)) {
                        report(hazard_report::kind::read_write, a.f, e.task,
                               self, i);
                    }
                });
            }
        }
    }

    res.hazards.reserve(coalesced.size());
    for (const auto& [key, range] : coalesced) {
        res.hazards.push_back({key.k, key.f, key.a, key.b, range.first,
                               range.second});
    }
    return res;
}

std::string format_audit(const audit_result& res, const graph_model& m) {
    std::ostringstream os;
    if (res.ok()) {
        os << "graph audit: PASS — " << res.tasks << " tasks, " << res.edges
           << " intra-stage edges, " << res.accesses
           << " declared accesses, " << res.indices_stamped
           << " indices checked, 0 unordered overlaps\n";
        return os.str();
    }
    os << "graph audit: FAIL — " << res.hazards.size()
       << " unordered overlap(s):\n";
    for (const hazard_report& h : res.hazards) {
        os << "  " << h.describe(m) << "\n";
    }
    return os.str();
}

std::vector<slab_audit> audit_slabs(std::span<const domain* const> slabs,
                                    partition_sizes parts) {
    std::vector<slab_audit> audits;
    audits.reserve(slabs.size());
    for (const domain* d : slabs) {
        slab_audit& a = audits.emplace_back();
        a.model = build_iteration_model(*d, parts);
        add_checkpoint_pack_tasks(a.model, *d);
        a.result = audit_graph(a.model, *d);
    }
    return audits;
}

bool audits_ok(const std::vector<slab_audit>& audits) {
    return std::all_of(audits.begin(), audits.end(),
                       [](const slab_audit& a) { return a.result.ok(); });
}

std::string format_audits(const std::vector<slab_audit>& audits) {
    std::string out;
    for (std::size_t i = 0; i < audits.size(); ++i) {
        if (audits.size() > 1) out += "slab " + std::to_string(i) + ": ";
        out += format_audit(audits[i].result, audits[i].model);
    }
    return out;
}

}  // namespace lulesh::graph
