// dist/halo_audit.cpp — slab model construction for the halo-exchange
// audit.  See halo_audit.hpp for the task/edge semantics.

#include "dist/halo_audit.hpp"

#include <algorithm>
#include <sstream>

namespace lulesh::dist {

namespace {

using graph::access;
using graph::closure;
using graph::graph_model;
using graph::mode;
using graph::task_decl;

namespace halo_site {
inline constexpr const char* pack_corner = "halo.pack_corner";
inline constexpr const char* unpack_corner = "halo.unpack_corner";
inline constexpr const char* pack_delv = "halo.pack_delv";
inline constexpr const char* unpack_delv = "halo.unpack_delv";
}  // namespace halo_site

/// The six corner-force arrays over elements [lo, hi) (pack reads the
/// owned boundary plane; unpack writes the ghost plane).
std::vector<access> corner_plane_accesses(index_t lo, index_t hi, mode m) {
    return {
        {field::fx_elem, m, lo, hi},    {field::fy_elem, m, lo, hi},
        {field::fz_elem, m, lo, hi},    {field::fx_elem_hg, m, lo, hi},
        {field::fy_elem_hg, m, lo, hi}, {field::fz_elem_hg, m, lo, hi},
    };
}

std::vector<access> delv_plane_accesses(index_t lo, index_t hi, mode m) {
    return {{field::delv_zeta, m, lo, hi}};
}

/// Task ids of stage `stage` whose primary element range intersects
/// [lo, hi) and whose site matches `prefix` — the tasks that produce the
/// plane a pack task reads, i.e. the orderings spawn_staged's plane gating
/// guarantees before a send fires.
std::vector<int> producers_of(const graph_model& m, int stage,
                              const char* prefix, index_t lo, index_t hi) {
    std::vector<int> deps;
    const std::string want(prefix);
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
        const task_decl& td = m.tasks[t];
        if (td.stage != stage) continue;
        if (std::string(td.site).rfind(want, 0) != 0) continue;
        if (td.lo < hi && lo < td.hi) deps.push_back(static_cast<int>(t));
    }
    return deps;
}

}  // namespace

graph_model build_slab_model(const domain& d, partition_sizes parts) {
    graph_model m = graph::build_iteration_model(d, parts);
    const index_t ep = d.elems_per_plane();

    auto add = [&m](const char* site, index_t partition, index_t lo,
                    index_t hi, int stage, std::vector<access> accs,
                    std::vector<int> deps = {}) {
        m.tasks.push_back({site, partition, lo, hi, stage, std::move(accs),
                           std::move(deps)});
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
        add(halo_site::pack_corner, b.ordinal, b.plane_base, b.plane_base + ep,
            0, corner_plane_accesses(b.plane_base, b.plane_base + ep,
                                     mode::read),
            producers_of(m, 0, "force.", b.plane_base, b.plane_base + ep));
        add(halo_site::unpack_corner, b.ordinal, b.ghost_slot,
            b.ghost_slot + ep,
            0, corner_plane_accesses(b.ghost_slot, b.ghost_slot + ep,
                                     mode::write));

        // Stage 2: delv_zeta exchange feeding the monotonic-Q stencil of
        // wave 4 (stage 3 reads the ghosts through face_neighbors).
        add(halo_site::pack_delv, b.ordinal, b.plane_base, b.plane_base + ep,
            2, delv_plane_accesses(b.plane_base, b.plane_base + ep,
                                   mode::read),
            producers_of(m, 2, "elem", b.plane_base, b.plane_base + ep));
        add(halo_site::unpack_delv, b.ordinal, b.ghost_slot, b.ghost_slot + ep,
            2, delv_plane_accesses(b.ghost_slot, b.ghost_slot + ep,
                                   mode::write));
    }
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
