// dist/halo_audit.cpp — slab model construction for the halo-exchange
// audit.  See halo_audit.hpp for the task/edge semantics.

#include "dist/halo_audit.hpp"

#include <algorithm>
#include <sstream>

namespace lulesh::dist {

namespace {

using graph::body_kind;
using graph::graph_model;
using graph::task_decl;

namespace halo_site {
inline constexpr const char* pack_corner = "halo.pack_corner";
inline constexpr const char* unpack_corner = "halo.unpack_corner";
inline constexpr const char* pack_delv = "halo.pack_delv";
inline constexpr const char* unpack_delv = "halo.unpack_delv";
}  // namespace halo_site

/// Task ids of stage `stage` whose chunk intersects [lo, hi) — the tasks
/// that produce the plane a pack task reads, i.e. the orderings the eager
/// exchange guarantees before a send fires.
std::vector<int> producers_of(const graph_model& m, int stage, index_t lo,
                              index_t hi) {
    std::vector<int> deps;
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
        const task_decl& td = m.tasks[t];
        if (td.stage != stage || !graph::is_wave_body(td.kind)) continue;
        if (td.lo < hi && lo < td.hi) deps.push_back(static_cast<int>(t));
    }
    return deps;
}

}  // namespace

graph_model build_slab_table(const domain& d, partition_sizes parts) {
    graph_model m = graph::build_iteration_table(d, parts);
    const index_t ep = d.elems_per_plane();

    auto add = [&m, ep](const char* site, body_kind kind, index_t partition,
                        index_t lo, int stage, std::vector<int> deps) {
        task_decl& t = m.tasks.emplace_back();
        t.site = site;
        t.kind = kind;
        t.partition = partition;
        t.lo = lo;
        t.hi = lo + ep;
        t.stage = stage;
        t.deps = std::move(deps);
    };

    // Boundary descriptors: partition 0 = lower neighbor, 1 = upper.
    struct boundary {
        index_t ordinal;
        index_t plane_base;  ///< owned plane sent to the neighbor
        index_t ghost_slot;  ///< ghost plane received from the neighbor
    };
    std::vector<boundary> bounds;
    if (d.has_lower_neighbor()) {
        bounds.push_back({0, d.bottom_plane_elem_base(),
                          d.ghost_lower_slot()});
    }
    if (d.has_upper_neighbor()) {
        bounds.push_back({1, d.top_plane_elem_base(), d.ghost_upper_slot()});
    }

    for (const boundary& b : bounds) {
        // Stage 0: corner-force exchange feeding the node gather of wave 2.
        add(halo_site::pack_corner, body_kind::pack_corner, b.ordinal,
            b.plane_base, 0,
            producers_of(m, 0, b.plane_base, b.plane_base + ep));
        add(halo_site::unpack_corner, body_kind::unpack_corner, b.ordinal,
            b.ghost_slot, 0, {});

        // Stage 2: delv_zeta exchange feeding the monotonic-Q stencil of
        // wave 4 (stage 3 reads the ghosts through face_neighbors).
        add(halo_site::pack_delv, body_kind::pack_delv, b.ordinal,
            b.plane_base, 2,
            producers_of(m, 2, b.plane_base, b.plane_base + ep));
        add(halo_site::unpack_delv, body_kind::unpack_delv, b.ordinal,
            b.ghost_slot, 2, {});
    }
    return m;
}

graph_model build_slab_model(const domain& d, partition_sizes parts) {
    graph_model m = build_slab_table(d, parts);
    graph::fill_accesses(m, d);
    return m;
}

std::vector<slab_audit> audit_cluster(const cluster& c,
                                      partition_sizes parts) {
    std::vector<slab_audit> audits;
    audits.reserve(static_cast<std::size_t>(c.num_slabs()));
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        const domain& d = c.slab(s);
        slab_audit a;
        a.slab = s;
        a.model = build_slab_model(d, parts);
        graph::add_checkpoint_pack_tasks(a.model, d);
        a.result = graph::audit_graph(a.model, d);
        audits.push_back(std::move(a));
    }
    return audits;
}

bool cluster_audit_ok(const std::vector<slab_audit>& audits) {
    return std::all_of(audits.begin(), audits.end(),
                       [](const slab_audit& a) { return a.result.ok(); });
}

std::string format_cluster_audit(const std::vector<slab_audit>& audits) {
    std::ostringstream os;
    for (const slab_audit& a : audits) {
        os << "slab " << a.slab << ": "
           << graph::format_audit(a.result, a.model);
    }
    return os.str();
}

}  // namespace lulesh::dist
