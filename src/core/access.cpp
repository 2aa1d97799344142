// core/access.cpp — the iteration table builder and the declarative access
// sets of its tasks.
//
// Every declaration below is derived from the kernel bodies
// (lulesh/kernels_*.cpp); the dynamic shadow tracker cross-checks them at
// runtime (a kernel touching outside its declaration is an error), and the
// adversarial audit tests check that weakening them is caught.

#include "core/access.hpp"

#include <algorithm>
#include <cmath>

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

// --- per-task access declarations ----------------------------------------

std::vector<access> force_stress_accesses(index_t lo, index_t hi) {
    // force_stress_chunk: stress terms from p and q, integrated over the
    // element's 8 corner nodes' coordinates, into the stress corner forces.
    return {
        {field::p, mode::read, lo, hi},
        {field::q, mode::read, lo, hi},
        {field::x, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::y, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::z, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::fx_elem, mode::write, lo, hi},
        {field::fy_elem, mode::write, lo, hi},
        {field::fz_elem, mode::write, lo, hi},
    };
}

std::vector<access> force_hourglass_accesses(index_t lo, index_t hi) {
    return {
        {field::volo, mode::read, lo, hi},
        {field::v, mode::read, lo, hi},
        {field::ss, mode::read, lo, hi},
        {field::elem_mass, mode::read, lo, hi},
        {field::x, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::y, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::z, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::xd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::yd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::zd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::fx_elem_hg, mode::write, lo, hi},
        {field::fy_elem_hg, mode::write, lo, hi},
        {field::fz_elem_hg, mode::write, lo, hi},
    };
}

std::vector<access> node_gather_accesses(index_t lo, index_t hi) {
    // gather_forces sums both corner-force components over each node's
    // element-corner list; calc_acceleration divides by nodalMass;
    // apply_acceleration_bc_masked zeroes accelerations on symmetry planes
    // (read-modify-write of xdd/ydd/zdd, covered by the write declaration).
    return {
        {field::fx_elem, mode::read, lo, hi, nullptr, closure::node_corners},
        {field::fy_elem, mode::read, lo, hi, nullptr, closure::node_corners},
        {field::fz_elem, mode::read, lo, hi, nullptr, closure::node_corners},
        {field::fx_elem_hg, mode::read, lo, hi, nullptr,
         closure::node_corners},
        {field::fy_elem_hg, mode::read, lo, hi, nullptr,
         closure::node_corners},
        {field::fz_elem_hg, mode::read, lo, hi, nullptr,
         closure::node_corners},
        {field::fx, mode::write, lo, hi},
        {field::fy, mode::write, lo, hi},
        {field::fz, mode::write, lo, hi},
        {field::nodal_mass, mode::read, lo, hi},
        {field::symm_mask, mode::read, lo, hi},
        {field::xdd, mode::write, lo, hi},
        {field::ydd, mode::write, lo, hi},
        {field::zdd, mode::write, lo, hi},
    };
}

std::vector<access> node_velpos_accesses(index_t lo, index_t hi) {
    return {
        {field::xdd, mode::read, lo, hi},
        {field::ydd, mode::read, lo, hi},
        {field::zdd, mode::read, lo, hi},
        {field::xd, mode::write, lo, hi},
        {field::yd, mode::write, lo, hi},
        {field::zd, mode::write, lo, hi},
        {field::x, mode::write, lo, hi},
        {field::y, mode::write, lo, hi},
        {field::z, mode::write, lo, hi},
    };
}

std::vector<access> elem_wave_accesses(index_t lo, index_t hi) {
    // calc_kinematics + calc_lagrange_deviatoric + calc_monotonic_q_gradients
    // + check_qstop + apply_material_vnewc, fused.
    return {
        {field::x, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::y, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::z, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::xd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::yd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::zd, mode::read, lo, hi, nullptr, closure::elem_nodes},
        {field::v, mode::read, lo, hi},
        {field::volo, mode::read, lo, hi},
        {field::q, mode::read, lo, hi},  // check_qstop (previous EOS pass)
        {field::vnew, mode::write, lo, hi},
        {field::delv, mode::write, lo, hi},
        {field::arealg, mode::write, lo, hi},
        {field::dxx, mode::write, lo, hi},
        {field::dyy, mode::write, lo, hi},
        {field::dzz, mode::write, lo, hi},
        {field::vdov, mode::write, lo, hi},
        {field::delx_xi, mode::write, lo, hi},
        {field::delx_eta, mode::write, lo, hi},
        {field::delx_zeta, mode::write, lo, hi},
        {field::delv_xi, mode::write, lo, hi},
        {field::delv_eta, mode::write, lo, hi},
        {field::delv_zeta, mode::write, lo, hi},
        {field::vnewc, mode::write, lo, hi},
    };
}

std::vector<access> region_monoq_accesses(const index_t* list, index_t lo,
                                          index_t hi) {
    // calc_monotonic_q_region: the velocity gradients are read at the
    // element *and* its six face neighbors (the only non-element-local read
    // of the region wave — what makes one task per region chunk legal is
    // that delv_* is never written after the element wave).
    return {
        {field::elem_bc, mode::read, lo, hi, list},
        {field::vdov, mode::read, lo, hi, list},
        {field::elem_mass, mode::read, lo, hi, list},
        {field::volo, mode::read, lo, hi, list},
        {field::vnew, mode::read, lo, hi, list},
        {field::delx_xi, mode::read, lo, hi, list},
        {field::delx_eta, mode::read, lo, hi, list},
        {field::delx_zeta, mode::read, lo, hi, list},
        {field::delv_xi, mode::read, lo, hi, list, closure::face_neighbors},
        {field::delv_eta, mode::read, lo, hi, list, closure::face_neighbors},
        {field::delv_zeta, mode::read, lo, hi, list, closure::face_neighbors},
        {field::qq, mode::write, lo, hi, list},
        {field::ql, mode::write, lo, hi, list},
    };
}

std::vector<access> region_eos_accesses(const index_t* list, index_t lo,
                                        index_t hi) {
    // eval_eos_chunk re-reads p/e/q of the previous step and overwrites
    // them (RMW, covered by the write declarations).
    return {
        {field::delv, mode::read, lo, hi, list},
        {field::qq, mode::read, lo, hi, list},
        {field::ql, mode::read, lo, hi, list},
        {field::vnewc, mode::read, lo, hi, list},
        {field::p, mode::write, lo, hi, list},
        {field::e, mode::write, lo, hi, list},
        {field::q, mode::write, lo, hi, list},
        {field::ss, mode::write, lo, hi, list},
    };
}

std::vector<access> volume_update_accesses(index_t lo, index_t hi) {
    return {
        {field::vnew, mode::read, lo, hi},
        {field::v, mode::write, lo, hi},
    };
}

std::vector<access> constraint_accesses(const index_t* list, index_t lo,
                                        index_t hi, index_t slot) {
    return {
        {field::arealg, mode::read, lo, hi, list},
        {field::ss, mode::read, lo, hi, list},
        {field::vdov, mode::read, lo, hi, list},
        {field::dt_partial, mode::write, slot, slot + 1},
    };
}

namespace {

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
}  // namespace model_site

graph_model build_iteration_table(const domain& d, partition_sizes parts) {
    graph_model m;
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const index_t pn = parts.nodal > 0 ? parts.nodal : ne;
    const index_t pe = parts.elems > 0 ? parts.elems : ne;

    std::size_t count = 2 * static_cast<std::size_t>(wave_chunks(ne, pn)) +
                        static_cast<std::size_t>(wave_chunks(nn, pn)) +
                        static_cast<std::size_t>(wave_chunks(ne, pe)) +
                        constraint_slot_count(d, pe);
    m.tasks.reserve(count);

    auto add = [&m](const char* site, body_kind kind, index_t partition,
                    index_t lo, index_t hi, int stage, index_t region = -1,
                    index_t slot = -1) {
        task_decl& t = m.tasks.emplace_back();
        t.site = site;
        t.kind = kind;
        t.partition = partition;
        t.lo = lo;
        t.hi = hi;
        t.stage = stage;
        t.region = region;
        t.slot = slot;
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
    return m;
}

std::vector<access> accesses_of(const task_decl& t, const domain& d) {
    const index_t* list =
        t.region >= 0 ? d.regElemList(t.region).data() : nullptr;
    // A fused task's set is the union of its bodies' sets, in body order.
    const auto join = [](std::vector<access> a, std::vector<access> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    switch (t.kind) {
        case body_kind::force_stress:
            return force_stress_accesses(t.lo, t.hi);
        case body_kind::force_hourglass:
            return force_hourglass_accesses(t.lo, t.hi);
        case body_kind::node:
            return join(node_gather_accesses(t.lo, t.hi),
                        node_velpos_accesses(t.lo, t.hi));
        case body_kind::elem:
            return join(elem_wave_accesses(t.lo, t.hi),
                        volume_update_accesses(t.lo, t.hi));
        case body_kind::region:
            return join(join(region_monoq_accesses(list, t.lo, t.hi),
                             region_eos_accesses(list, t.lo, t.hi)),
                        constraint_accesses(list, t.lo, t.hi, t.slot));
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
    return {};
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
