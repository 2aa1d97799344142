// core/access.cpp — the iteration table builder and the declarative access
// sets of its tasks.
//
// Each wave body's declaration below lists the fields its kernels
// (lulesh/kernels_*.cpp) use; amtlint's AMT003 checks it against their
// source, and the adversarial audit tests check that weakening it is
// caught.

#include "core/access.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "core/graph_waves.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace lulesh::graph {

std::size_t space_extent(space s, const domain& d, std::size_t slots) {
    switch (s) {
        case space::node:
            return static_cast<std::size_t>(d.numNode());
        case space::elem:
            // At least numElem; delv_zeta can exceed it in dist slabs,
            // whose ghost planes live past the owned range (the halo audit
            // stamps those ghost indices).
            return std::max(static_cast<std::size_t>(d.numElem()),
                            d.delv_zeta.size());
        case space::corner:
            // Sized from the array, not numElem*8: dist slabs extend the
            // corner arrays with ghost planes.
            return d.fx_elem.size();
        case space::slot:
            return slots;
    }
    return 0;
}

const real_t* field_data(const domain& d, field f) noexcept {
    switch (f) {
        case field::x: return d.x.data();
        case field::y: return d.y.data();
        case field::z: return d.z.data();
        case field::xd: return d.xd.data();
        case field::yd: return d.yd.data();
        case field::zd: return d.zd.data();
        case field::xdd: return d.xdd.data();
        case field::ydd: return d.ydd.data();
        case field::zdd: return d.zdd.data();
        case field::fx: return d.fx.data();
        case field::fy: return d.fy.data();
        case field::fz: return d.fz.data();
        case field::nodal_mass: return d.nodalMass.data();
        case field::e: return d.e.data();
        case field::p: return d.p.data();
        case field::q: return d.q.data();
        case field::ql: return d.ql.data();
        case field::qq: return d.qq.data();
        case field::v: return d.v.data();
        case field::volo: return d.volo.data();
        case field::delv: return d.delv.data();
        case field::vdov: return d.vdov.data();
        case field::arealg: return d.arealg.data();
        case field::ss: return d.ss.data();
        case field::elem_mass: return d.elemMass.data();
        case field::dxx: return d.dxx.data();
        case field::dyy: return d.dyy.data();
        case field::dzz: return d.dzz.data();
        case field::delv_xi: return d.delv_xi.data();
        case field::delv_eta: return d.delv_eta.data();
        case field::delv_zeta: return d.delv_zeta.data();
        case field::delx_xi: return d.delx_xi.data();
        case field::delx_eta: return d.delx_eta.data();
        case field::delx_zeta: return d.delx_zeta.data();
        case field::vnew: return d.vnew.data();
        case field::vnewc: return d.vnewc.data();
        case field::fx_elem: return d.fx_elem.data();
        case field::fy_elem: return d.fy_elem.data();
        case field::fz_elem: return d.fz_elem.data();
        case field::fx_elem_hg: return d.fx_elem_hg.data();
        case field::fy_elem_hg: return d.fy_elem_hg.data();
        case field::fz_elem_hg: return d.fz_elem_hg.data();
        // Mask/flag and reduction-slot fields are not real_t arrays.
        case field::symm_mask:
        case field::elem_bc:
        case field::dt_partial:
        case field::count:
            return nullptr;
    }
    return nullptr;
}

// --- per-body access declarations ----------------------------------------

namespace {

/// One declared field use of a wave body: the field, its mode and the
/// closure the body reaches it through.  It carries no bounds; accesses_of
/// supplies them (see access.hpp).
struct field_use {
    field f;
    mode m;
    closure c = closure::none;
};

/// One array per wave_body:: function, named like it.  tools/amtlint
/// (AMT003) checks each against every field access of the kernels its body
/// reaches.
namespace declared {

// Stress terms from p and q, integrated over the element's 8 corner nodes'
// coordinates, into the stress corner forces.
constexpr field_use force_stress[] = {
    {field::p, mode::read},
    {field::q, mode::read},
    {field::x, mode::read, closure::elem_nodes},
    {field::y, mode::read, closure::elem_nodes},
    {field::z, mode::read, closure::elem_nodes},
    {field::fx_elem, mode::write},
    {field::fy_elem, mode::write},
    {field::fz_elem, mode::write},
};

constexpr field_use force_hourglass[] = {
    {field::volo, mode::read},
    {field::v, mode::read},
    {field::ss, mode::read},
    {field::elem_mass, mode::read},
    {field::x, mode::read, closure::elem_nodes},
    {field::y, mode::read, closure::elem_nodes},
    {field::z, mode::read, closure::elem_nodes},
    {field::xd, mode::read, closure::elem_nodes},
    {field::yd, mode::read, closure::elem_nodes},
    {field::zd, mode::read, closure::elem_nodes},
    {field::fx_elem_hg, mode::write},
    {field::fy_elem_hg, mode::write},
    {field::fz_elem_hg, mode::write},
};

// gather_forces sums both corner-force components over each node's
// element-corner list; calc_acceleration divides by nodalMass;
// apply_acceleration_bc_masked zeroes accelerations on symmetry planes
// (read-modify-write of xdd/ydd/zdd, covered by the write declaration).
constexpr field_use node_gather[] = {
    {field::fx_elem, mode::read, closure::node_corners},
    {field::fy_elem, mode::read, closure::node_corners},
    {field::fz_elem, mode::read, closure::node_corners},
    {field::fx_elem_hg, mode::read, closure::node_corners},
    {field::fy_elem_hg, mode::read, closure::node_corners},
    {field::fz_elem_hg, mode::read, closure::node_corners},
    {field::fx, mode::write},
    {field::fy, mode::write},
    {field::fz, mode::write},
    {field::nodal_mass, mode::read},
    {field::symm_mask, mode::read},
    {field::xdd, mode::write},
    {field::ydd, mode::write},
    {field::zdd, mode::write},
};

constexpr field_use node_velpos[] = {
    {field::xdd, mode::read},
    {field::ydd, mode::read},
    {field::zdd, mode::read},
    {field::xd, mode::write},
    {field::yd, mode::write},
    {field::zd, mode::write},
    {field::x, mode::write},
    {field::y, mode::write},
    {field::z, mode::write},
};

// calc_kinematics + calc_lagrange_deviatoric + calc_monotonic_q_gradients
// + check_qstop + apply_material_vnewc, fused.
constexpr field_use elem_fused[] = {
    {field::x, mode::read, closure::elem_nodes},
    {field::y, mode::read, closure::elem_nodes},
    {field::z, mode::read, closure::elem_nodes},
    {field::xd, mode::read, closure::elem_nodes},
    {field::yd, mode::read, closure::elem_nodes},
    {field::zd, mode::read, closure::elem_nodes},
    {field::v, mode::read},
    {field::volo, mode::read},
    {field::q, mode::read},  // check_qstop (previous EOS pass)
    {field::vnew, mode::write},
    {field::delv, mode::write},
    {field::arealg, mode::write},
    {field::dxx, mode::write},
    {field::dyy, mode::write},
    {field::dzz, mode::write},
    {field::vdov, mode::write},
    {field::delx_xi, mode::write},
    {field::delx_eta, mode::write},
    {field::delx_zeta, mode::write},
    {field::delv_xi, mode::write},
    {field::delv_eta, mode::write},
    {field::delv_zeta, mode::write},
    {field::vnewc, mode::write},
};

// The velocity gradients are read at the element *and* its six face
// neighbors (the only non-element-local read of the region wave — what
// makes one task per region chunk legal is that delv_* is never written
// after the element wave).
constexpr field_use region_monoq[] = {
    {field::elem_bc, mode::read},
    {field::vdov, mode::read},
    {field::elem_mass, mode::read},
    {field::volo, mode::read},
    {field::vnew, mode::read},
    {field::delx_xi, mode::read},
    {field::delx_eta, mode::read},
    {field::delx_zeta, mode::read},
    {field::delv_xi, mode::read, closure::face_neighbors},
    {field::delv_eta, mode::read, closure::face_neighbors},
    {field::delv_zeta, mode::read, closure::face_neighbors},
    {field::qq, mode::write},
    {field::ql, mode::write},
};

// The EOS re-reads p/e/q of the previous step and overwrites them (RMW,
// covered by the write declarations).
constexpr field_use region_eos[] = {
    {field::delv, mode::read},
    {field::qq, mode::read},
    {field::ql, mode::read},
    {field::vnewc, mode::read},
    {field::p, mode::write},
    {field::e, mode::write},
    {field::q, mode::write},
    {field::ss, mode::write},
};

constexpr field_use volume_update[] = {
    {field::vnew, mode::read},
    {field::v, mode::write},
};

constexpr field_use constraints[] = {
    {field::arealg, mode::read},
    {field::ss, mode::read},
    {field::vdov, mode::read},
    {field::dt_partial, mode::write},
};

}  // namespace declared

std::vector<access> plane_accesses(body_kind k, index_t lo, index_t hi) {
    // Halo steps: the six corner-force arrays or delv_zeta over one element
    // plane — read on the owned plane a send packs, written on the ghost
    // plane a receive unpacks.
    const mode m = k == body_kind::pack_corner || k == body_kind::pack_delv
                       ? mode::read
                       : mode::write;
    if (k == body_kind::pack_delv || k == body_kind::unpack_delv) {
        return {{field::delv_zeta, m, lo, hi}};
    }
    return {
        {field::fx_elem, m, lo, hi},    {field::fy_elem, m, lo, hi},
        {field::fz_elem, m, lo, hi},    {field::fx_elem_hg, m, lo, hi},
        {field::fy_elem_hg, m, lo, hi}, {field::fz_elem_hg, m, lo, hi},
    };
}

}  // namespace

// --- the iteration table ---------------------------------------------------

namespace model_site {
// Sub-site labels for the model's tasks: the runtime wave_site label, plus
// the body for the two force tasks, so a hazard report pinpoints the exact
// task.
inline constexpr const char* force_stress = "force.stress";
inline constexpr const char* force_hourglass = "force.hourglass";
inline constexpr const char* node = "node";
inline constexpr const char* elem = "elem";
inline constexpr const char* region = "region_eos";
inline constexpr const char* ckpt_pack_node = "ckpt.pack.node";
inline constexpr const char* ckpt_pack_elem = "ckpt.pack.elem";
inline constexpr const char* pack_corner = "halo.pack_corner";
inline constexpr const char* unpack_corner = "halo.unpack_corner";
inline constexpr const char* pack_delv = "halo.pack_delv";
inline constexpr const char* unpack_delv = "halo.unpack_delv";
inline constexpr const char* liveness = "dist.liveness";
}  // namespace model_site

namespace {

/// Wave-body task ids of stage `stage` whose chunk intersects [lo, hi) —
/// the tasks that produce the plane a pack task reads, i.e. the orderings
/// every exchange mode guarantees before a send fires.
std::vector<int> producers_of(const graph_model& m, int stage, index_t lo,
                              index_t hi) {
    std::vector<int> deps;
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
        const task_decl& td = m.tasks[t];
        if (td.stage != stage || !is_wave_body(td.kind)) continue;
        if (td.lo < hi && lo < td.hi) deps.push_back(static_cast<int>(t));
    }
    return deps;
}

}  // namespace

graph_model build_iteration_table(const domain& d, partition_sizes parts) {
    graph_model m;
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const index_t pn = parts.nodal > 0 ? parts.nodal : ne;
    const index_t pe = parts.elems > 0 ? parts.elems : ne;

    const int neighbours =
        int{d.has_lower_neighbor()} + int{d.has_upper_neighbor()};
    std::size_t count = 2 * static_cast<std::size_t>(wave_chunks(ne, pn)) +
                        static_cast<std::size_t>(wave_chunks(nn, pn)) +
                        static_cast<std::size_t>(wave_chunks(ne, pe)) +
                        constraint_slot_count(d, pe) +
                        static_cast<std::size_t>(4 * neighbours + 1);
    m.tasks.reserve(count);

    auto add = [&m](const char* site, body_kind kind, index_t partition,
                    index_t lo, index_t hi, int stage, index_t region = -1,
                    index_t slot = -1) -> task_decl& {
        task_decl& t = m.tasks.emplace_back();
        t.site = site;
        t.kind = kind;
        t.partition = partition;
        t.lo = lo;
        t.hi = hi;
        t.stage = stage;
        t.region = region;
        t.slot = slot;
        return t;
    };

    // Stage 0 — force wave: stress ∥ hourglass per element chunk of p_nodal
    // (trick T4: both launched together).
    index_t part = 0;
    for (index_t lo = 0; lo < ne; lo += pn, ++part) {
        const index_t hi = std::min<index_t>(lo + pn, ne);
        add(model_site::force_stress, body_kind::force_stress, part, lo, hi,
            0);
        add(model_site::force_hourglass, body_kind::force_hourglass, part, lo,
            hi, 0);
    }

    // Stage 1 — node wave per node chunk: gather + acceleration + BC, then
    // velocity + position (T3).
    part = 0;
    for (index_t lo = 0; lo < nn; lo += pn, ++part) {
        add(model_site::node, body_kind::node, part, lo,
            std::min<index_t>(lo + pn, nn), 1);
    }

    // Stage 2 — element wave per p_elems chunk: the fused kinematics, then
    // the volume update (T3).
    part = 0;
    for (index_t lo = 0; lo < ne; lo += pe, ++part) {
        add(model_site::elem, body_kind::elem, part, lo,
            std::min<index_t>(lo + pe, ne), 2);
    }

    // Stage 3 — region wave per (region, chunk): monoq, EOS, then the
    // chunk's dt partial in slot `part` (T3+T4+T5, all regions launched
    // together).  The driver min-reduces the partials after B4.
    part = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto n = static_cast<index_t>(d.regElemList(r).size());
        for (index_t lo = 0; lo < n; lo += pe, ++part) {
            add(model_site::region, body_kind::region, part, lo,
                std::min<index_t>(lo + pe, n), 3, r, part);
        }
    }

    m.num_stages = 4;
    m.num_slots = static_cast<std::size_t>(part);
    if (neighbours == 0) return m;

    // The halo tasks of each boundary: the corner forces feed the node
    // gather of stage 1, delv_zeta the monotonic-Q stencil of stage 3
    // (which reads the ghosts through face_neighbors).
    const index_t ep = d.elems_per_plane();
    for (const bool upper : {false, true}) {
        if (!(upper ? d.has_upper_neighbor() : d.has_lower_neighbor())) {
            continue;
        }
        const index_t plane =
            upper ? d.top_plane_elem_base() : d.bottom_plane_elem_base();
        const index_t ghost =
            upper ? d.ghost_upper_slot() : d.ghost_lower_slot();
        const index_t side = upper ? 1 : 0;
        for (const int stage : {0, 2}) {
            const bool corner = stage == 0;
            std::vector<int> deps = producers_of(m, stage, plane, plane + ep);
            add(corner ? model_site::pack_corner : model_site::pack_delv,
                corner ? body_kind::pack_corner : body_kind::pack_delv, side,
                plane, plane + ep, stage)
                .deps = std::move(deps);
            add(corner ? model_site::unpack_corner : model_site::unpack_delv,
                corner ? body_kind::unpack_corner : body_kind::unpack_delv,
                side, ghost, ghost + ep, stage);
        }
    }
    add(model_site::liveness, body_kind::slab_liveness, 0, 0, 0, 0);
    return m;
}

std::vector<access> accesses_of(const task_decl& t, const domain& d) {
    const index_t* list =
        t.region >= 0 ? d.regElemList(t.region).data() : nullptr;
    // A fused task's set is its bodies' declarations over its chunk, in the
    // order run_body runs them.
    std::vector<access> out;
    const auto body = [&](std::span<const field_use> decl) {
        for (const field_use& u : decl) {
            if (field_space(u.f) == space::slot) {
                out.push_back({u.f, u.m, t.slot, t.slot + 1, nullptr, u.c});
            } else {
                out.push_back({u.f, u.m, t.lo, t.hi, list, u.c});
            }
        }
    };
    switch (t.kind) {
        case body_kind::force_stress:
            body(declared::force_stress);
            break;
        case body_kind::force_hourglass:
            body(declared::force_hourglass);
            break;
        case body_kind::node:
            body(declared::node_gather);
            body(declared::node_velpos);
            break;
        case body_kind::elem:
            body(declared::elem_fused);
            body(declared::volume_update);
            break;
        case body_kind::region:
            body(declared::region_monoq);
            body(declared::region_eos);
            body(declared::constraints);
            break;
        case body_kind::pack_corner:
        case body_kind::unpack_corner:
        case body_kind::pack_delv:
        case body_kind::unpack_delv:
            return plane_accesses(t.kind, t.lo, t.hi);
        case body_kind::ckpt_pack:
            return {{checkpoint_field_at(static_cast<std::size_t>(t.slot)),
                     mode::read, t.lo, t.hi}};
        case body_kind::slab_liveness:
            break;
    }
    return out;
}

void fill_accesses(graph_model& m, const domain& d) {
    for (task_decl& t : m.tasks) t.accesses = accesses_of(t, d);
}

graph_model build_iteration_model(const domain& d, partition_sizes parts) {
    graph_model m = build_iteration_table(d, parts);
    fill_accesses(m, d);
    return m;
}

int checkpoint_pack_last_stage(field f) noexcept {
    if (field_space(f) == space::node) return 0;
    return f == field::v ? 1 : 2;
}

void add_checkpoint_pack_tasks(graph_model& m, const domain& d) {
    for (std::size_t s = 0; s < num_checkpoint_fields; ++s) {
        const field f = checkpoint_field_at(s);
        const bool node_field = field_space(f) == space::node;
        task_decl t;
        t.site = node_field ? model_site::ckpt_pack_node
                            : model_site::ckpt_pack_elem;
        t.kind = body_kind::ckpt_pack;
        t.partition = static_cast<index_t>(s);
        t.lo = 0;
        t.hi = node_field ? d.numNode() : d.numElem();
        t.stage = 0;
        t.stage_last = checkpoint_pack_last_stage(f);
        t.slot = static_cast<index_t>(s);
        t.accesses = accesses_of(t, d);
        m.tasks.push_back(std::move(t));
    }
}

// --- bridges ---------------------------------------------------------------

std::vector<std::size_t> arena_extents(const domain& d, std::size_t slots) {
    std::vector<std::size_t> extents(num_fields);
    for (std::size_t f = 0; f < num_fields; ++f) {
        extents[f] = space_extent(field_space(static_cast<field>(f)), d,
                                  slots);
    }
    return extents;
}

amt::hazard::access_set expand_to_hazard_set(const std::vector<access>& accs,
                                             const domain& d) {
    amt::hazard::access_set set;
    for (const access& a : accs) {
        const bool write = a.m == mode::write;
        const int f = static_cast<int>(a.f);
        if (a.c == closure::none && a.list == nullptr) {
            // Contiguous interval — one entry, corner sets scaled to
            // corner positions.
            if (field_space(a.f) == space::corner) {
                set.add(f, write, static_cast<std::int64_t>(a.lo) * 8,
                        static_cast<std::int64_t>(a.hi) * 8);
            } else {
                set.add(f, write, a.lo, a.hi);
            }
            continue;
        }
        // expand_access yields concrete indices of the field's own space
        // (corner fields included), so points go in unscaled.
        expand_access(a, d, [&](index_t i) { set.add(f, write, i, i + 1); });
    }
    set.normalize();
    return set;
}

field scan_written_for_nonfinite(const std::vector<access>& accs,
                                 const domain& d) {
    for (const access& a : accs) {
        if (a.m != mode::write) continue;
        const real_t* data = field_data(d, a.f);
        if (data == nullptr) continue;
        bool bad = false;
        expand_access(a, d, [&](index_t i) {
            if (!std::isfinite(data[i])) bad = true;
        });
        if (bad) return a.f;
    }
    return field::count;
}

}  // namespace lulesh::graph
