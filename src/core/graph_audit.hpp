// core/graph_audit.hpp
//
// The static half of the task-graph hazard auditor: walks the declarative
// model of one leapfrog iteration (core/access.hpp) and proves that every
// read–write and write–write overlap between tasks is ordered — either by a
// declared continuation edge within a barrier interval, or by one of the
// four surviving barriers (tasks of different stages are totally
// ordered by construction, so only same-stage overlaps need an edge).
//
// This turns the paper's hand-reasoned barrier-elision argument (trick T2:
// "the elided dependencies are element-local") into a property checked
// against the actual partition bounds and region lists of a concrete
// domain.  Any partitioning a run picks (`-p`, Table I's tuned sizes) can
// be audited before it is trusted (`lulesh_app --audit-graph`).
//
// The proof is exact, not conservative: access sets expand through the real
// mesh connectivity (element→node lists, node→corner lists, face
// adjacency), so a pass means *no* unordered overlap exists for this mesh,
// and a failure names the two tasks, the field, and the offending index
// range.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/access.hpp"

namespace lulesh::graph {

/// One unordered overlap between two tasks of the same barrier interval.
struct hazard_report {
    enum class kind : std::uint8_t {
        write_write,  ///< both tasks declare writes to the range
        read_write    ///< one task writes, the other reads, no edge between
    };

    kind k = kind::write_write;
    field f = field::count;
    int task_a = -1;  ///< indices into graph_model::tasks
    int task_b = -1;
    std::int64_t lo = 0;  ///< offending range [lo, hi) of f's index space
    std::int64_t hi = 0;

    /// "write-write hazard on v [64, 65): elem[0] vs elem[1]
    ///  (stage 2, no ordering edge)"
    [[nodiscard]] std::string describe(const graph_model& m) const;
};

struct audit_result {
    std::vector<hazard_report> hazards;
    std::size_t tasks = 0;            ///< tasks audited
    std::size_t accesses = 0;         ///< declared accesses expanded
    std::size_t indices_stamped = 0;  ///< concrete (field, index) stamps
    std::size_t edges = 0;            ///< intra-stage ordering edges

    [[nodiscard]] bool ok() const noexcept { return hazards.empty(); }
};

/// Audits the model against the concrete domain connectivity.  Cost is
/// O(total expanded access size) — linear in mesh size per stage.
audit_result audit_graph(const graph_model& m, const domain& d);

/// Multi-line human-readable summary: "graph audit: PASS (N tasks, ...)" or
/// the hazard list, one describe() line each.
std::string format_audit(const audit_result& res, const graph_model& m);

}  // namespace lulesh::graph
