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
//
// audit_slabs is the one audit of what the taskgraph driver runs: per slab
// of a slab set (a lone domain, or a cluster's z-slabs), the iteration
// table with its halo tasks plus the overlapped checkpoint packs.  The
// audit is per slab: slabs share no arrays (channels pass buffers by
// value), so cross-slab ordering is the channel set→get dependency the
// runtime enforces by construction, while every intra-slab hazard — ghost
// slots colliding with owned ranges, a send racing the plane it reads, a
// checkpoint pack outliving its barrier — is in scope.  The exchange modes
// differ only in whether the slabs share one barrier set, and a shared
// barrier only adds ordering, so the audit covers both.

#pragma once

#include <cstdint>
#include <span>
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

/// One slab's audit: its model and the verdict.
struct slab_audit {
    graph_model model;
    audit_result result;
};

/// Audits every slab of a slab set: build_iteration_model plus
/// add_checkpoint_pack_tasks, against the slab's own connectivity.
std::vector<slab_audit> audit_slabs(std::span<const domain* const> slabs,
                                    partition_sizes parts);

/// True when every slab passed.
[[nodiscard]] bool audits_ok(const std::vector<slab_audit>& audits);

/// format_audit per slab, each prefixed "slab <i>: " when there is more
/// than one.
std::string format_audits(const std::vector<slab_audit>& audits);

}  // namespace lulesh::graph
