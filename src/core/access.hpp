// core/access.hpp
//
// The iteration table and its declarative access sets.  The table
// (build_iteration_table, plus build_slab_model's halo tasks for a dist
// slab) is the ONE description of a leapfrog iteration: each task_decl
// names the call it makes (a body_kind plus its chunk, region and slot),
// its stage and its continuation edges.  core/compiled_iteration compiles
// it into the replayed static graph; the same table, with every task's
// access set filled in from lulesh/kernels.hpp's signatures, feeds two
// checkers:
//
//   * the static audit pass (core/graph_audit.*) walks the declarative
//     model of one iteration and proves that every read-write and
//     write-write overlap between tasks is ordered by a declared
//     continuation edge or a surviving barrier — turning the
//     paper's hand-reasoned "the elided dependencies are element-local"
//     claim (trick T2) into a checkable property;
//
//   * the dynamic shadow-epoch tracker (core/hazard.*) stamps the declared
//     sets of in-flight tasks into shadow arrays and flags overlapping
//     stamps as races — and flags task bodies touching indices outside
//     their declaration, validating the declarations themselves.
//
// Index sets are intentionally *exact*, not conservative: an access is a
// contiguous interval of the field's index space or an indirect slice of a
// region element list, optionally expanded by the connectivity closure the
// kernel actually follows (element→corner-node lists, node→element-corner
// lists, element→face-neighbor links).  Exactness is what lets the auditor
// prove disjointness instead of merely failing to find an overlap.

#pragma once

#include <cstdint>
#include <vector>

#include "amt/hazard.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/fields.hpp"
#include "lulesh/options.hpp"

namespace lulesh::graph {

// The field catalog (field, space, field_space, field_name) lives in
// lulesh/fields.hpp so the kernels can reference it for their hazard touch
// probes without depending on this layer; re-exported here for the graph
// model's consumers.
using lulesh::field;
using lulesh::field_name;
using lulesh::field_space;
using lulesh::num_fields;
using lulesh::space;

enum class mode : std::uint8_t { read, write };

/// Connectivity closure applied to an access's base index set — the
/// neighborhood the kernel actually dereferences.
enum class closure : std::uint8_t {
    none,           ///< exactly the base set
    elem_nodes,     ///< the 8 nodelist() nodes of each element in the set
    node_corners,   ///< the nodeElemCornerList() positions of each node
    face_neighbors  ///< the set plus its lxim/lxip/letam/letap/lzetam/lzetap
                    ///< face-adjacent elements
};

/// One declared access: `m` over field `f`, base set either the interval
/// [lo, hi) of the field's space or — when `list` is non-null — the
/// indirect element slice list[lo..hi), expanded by closure `c`.
struct access {
    field f;
    mode m;
    index_t lo = 0;
    index_t hi = 0;
    const index_t* list = nullptr;
    closure c = closure::none;
};

/// Expands `a` against the domain connectivity, invoking `visit(index)` for
/// every concrete index of the field's space the access covers.  Duplicates
/// may be visited (closures of adjacent entities overlap); visitors must be
/// idempotent per task.
template <class Visit>
void expand_access(const access& a, const domain& d, Visit&& visit) {
    auto base = [&](index_t id) {
        switch (a.c) {
            case closure::none:
                if (field_space(a.f) == space::corner) {
                    for (index_t c = 0; c < 8; ++c) visit(id * 8 + c);
                } else {
                    visit(id);
                }
                break;
            case closure::elem_nodes: {
                const index_t* nl = d.nodelist(id);
                for (int c = 0; c < 8; ++c) visit(nl[c]);
                break;
            }
            case closure::node_corners: {
                const index_t n = d.nodeElemCount(id);
                const index_t* corners = d.nodeElemCornerList(id);
                for (index_t c = 0; c < n; ++c) visit(corners[c]);
                break;
            }
            case closure::face_neighbors: {
                const auto k = static_cast<std::size_t>(id);
                visit(id);
                visit(d.lxim[k]);
                visit(d.lxip[k]);
                visit(d.letam[k]);
                visit(d.letap[k]);
                visit(d.lzetam[k]);
                visit(d.lzetap[k]);
                break;
            }
        }
    };
    if (a.list != nullptr) {
        for (index_t i = a.lo; i < a.hi; ++i) base(a.list[i]);
    } else {
        for (index_t i = a.lo; i < a.hi; ++i) base(i);
    }
}

/// Extent of a field's index space on this domain (`slots` supplies the
/// wave-5 partial count, which is not a domain property).
std::size_t space_extent(space s, const domain& d, std::size_t slots);

// --- per-task access declarations ----------------------------------------
//
// One function per distinct task body of the table (the wave_body:: calls
// of graph_waves.hpp), mirroring the kernel signatures it fuses.  Ranges
// are the same [lo, hi) the table hands the kernels; region tasks
// additionally carry the region's element list.  Keep these in lockstep
// with the bodies: the shadow tracker flags a body that touches outside its
// declaration, and the adversarial audit tests flag a declaration that
// shrinks below what the chaining needs.

/// Wave 1, stress chain: force_stress_chunk(d, lo, hi).
std::vector<access> force_stress_accesses(index_t lo, index_t hi);

/// Wave 1, hourglass chain: force_hourglass_chunk(d, lo, hi).
std::vector<access> force_hourglass_accesses(index_t lo, index_t hi);

/// Wave 2, link 1: gather_forces + calc_acceleration +
/// apply_acceleration_bc_masked over nodes [lo, hi).
std::vector<access> node_gather_accesses(index_t lo, index_t hi);

/// Wave 2, link 2 (continuation): velocity_position_chunk over [lo, hi).
std::vector<access> node_velpos_accesses(index_t lo, index_t hi);

/// Wave 3: calc_kinematics + calc_lagrange_deviatoric +
/// calc_monotonic_q_gradients + check_qstop + apply_material_vnewc.
std::vector<access> elem_wave_accesses(index_t lo, index_t hi);

/// Wave 4, link 1: calc_monotonic_q_region over list[lo..hi).
std::vector<access> region_monoq_accesses(const index_t* list, index_t lo,
                                          index_t hi);

/// Wave 4, link 2 (continuation): eval_eos_chunk over list[lo..hi).
std::vector<access> region_eos_accesses(const index_t* list, index_t lo,
                                        index_t hi);

/// Wave 4, independent: update_volumes over [lo, hi).
std::vector<access> volume_update_accesses(index_t lo, index_t hi);

/// Wave 5: calc_time_constraints over list[lo..hi) into partial `slot`.
std::vector<access> constraint_accesses(const index_t* list, index_t lo,
                                        index_t hi, index_t slot);

// --- the iteration table ----------------------------------------------------

/// The call a table task makes.  The first nine are the wave_body:: calls
/// (graph_waves.hpp) run by the compiled graph's task nodes; the halo kinds
/// are a dist slab's boundary steps (build_slab_model), whose bodies the
/// dist driver supplies; ckpt_pack is an overlapped checkpoint pack
/// (add_checkpoint_pack_tasks), which the drivers run as external
/// dependencies of the graph rather than as nodes.
enum class body_kind : std::uint8_t {
    force_stress,
    force_hourglass,
    node_gather,
    node_velpos,
    elem_fused,
    region_monoq,
    region_eos,
    volume_update,
    constraints,
    pack_corner,    ///< send the owned boundary plane's corner forces
    unpack_corner,  ///< receive the neighbor's plane into the ghost slots
    pack_delv,      ///< send the owned boundary plane's delv_zeta
    unpack_delv,    ///< receive the neighbor's delv_zeta ghost plane
    ckpt_pack,
    slab_liveness   ///< the dist driver's per-slab heartbeat/kill-switch
                    ///< node; appended to compiled slab tables only
};

/// True for the kinds whose body is a wave_body:: call.
[[nodiscard]] constexpr bool is_wave_body(body_kind k) noexcept {
    return k <= body_kind::constraints;
}

/// One task of the modelled iteration.
struct task_decl {
    const char* site = nullptr;  ///< sub-site label, e.g. "region_eos.monoq"
    index_t partition = 0;       ///< partition ordinal within the wave; for
                                 ///< halo tasks 0 = lower, 1 = upper boundary
    index_t lo = 0;              ///< the chunk the body runs over: element or
    index_t hi = 0;              ///< node range, region-list positions, or
                                 ///< the halo plane
    int stage = 0;               ///< barrier interval the task runs in (0-4)
    std::vector<access> accesses;  ///< empty in a compact table
    std::vector<int> deps;       ///< tasks ordered *before* this one by a
                                 ///< declared continuation edge (task ids)
    int stage_last = -1;         ///< last stage the task may still be running
                                 ///< in (inclusive); -1 means == stage.  Only
                                 ///< checkpoint pack tasks span stages: they
                                 ///< start with stage 0 and are joined into
                                 ///< the barrier before the first wave that
                                 ///< writes their field.
    body_kind kind = body_kind::force_stress;
    index_t region = -1;  ///< region whose element list [lo, hi) indexes
    index_t slot = -1;    ///< dt partial slot (constraints) or checkpoint
                          ///< field slot (ckpt_pack)
};

/// The pre-built graph of one leapfrog iteration: tasks grouped into
/// `num_stages` barrier intervals (the surviving barriers order stage i
/// entirely before stage i+1; within a stage only `deps` edges order
/// tasks).
struct graph_model {
    std::vector<task_decl> tasks;
    int num_stages = 0;
    std::size_t num_slots = 0;  ///< extent of the dt_partial space
};

/// The compact table of one taskgraph iteration on `d` with partition
/// sizes `parts`: every task's body, stage and edges, no access sets.
/// Region contents and the domain's address are not part of it — task
/// bodies read the region lists from the domain they are bound to.
graph_model build_iteration_table(const domain& d, partition_sizes parts);

/// build_iteration_table with every task's access set filled in — the
/// form the static audit and the checkpoint write-set derivation read.
graph_model build_iteration_model(const domain& d, partition_sizes parts);

/// The declared accesses of task `t` on `d` (region tasks expand against
/// d's region lists).
std::vector<access> accesses_of(const task_decl& t, const domain& d);

/// Fills every task's access set from accesses_of.
void fill_accesses(graph_model& m, const domain& d);

/// Appends the overlapped checkpoint-packing tasks the drivers run when
/// the resilient loop hands them a capture: one read-only task per
/// checkpointed field, modelled conservatively over the field's full
/// extent.  Node-field packs run within stage 0 (they gate the barrier
/// before the node wave writes coordinates/velocities); elem-field packs
/// span stages 0-2 (they gate the barrier before the region/volume wave
/// writes e/p/q/ss/v).  The audit over this extended model is the proof
/// that packing never races the compute it overlaps.
void add_checkpoint_pack_tasks(graph_model& m, const domain& d);

// --- bridges to the dynamic tracker and the NaN sentinel -------------------

/// Extents of every field's index space on `d`, indexed by field value —
/// the arena layout for amt::hazard::bind_arena.
std::vector<std::size_t> arena_extents(const domain& d, std::size_t slots);

/// Expands a task's declared accesses into the tracker's flat interval
/// form (corner sets become index*8 intervals, closures become per-entity
/// point intervals, merged by normalize()).
amt::hazard::access_set expand_to_hazard_set(const std::vector<access>& accs,
                                             const domain& d);

/// The backing array of a real-valued field, or nullptr for index/mask
/// fields (symm_mask, elem_bc) and the slot space — used by the NaN scan.
const real_t* field_data(const domain& d, field f) noexcept;

/// Scans the *written* intervals of `accs` for non-finite values; returns
/// the offending field or field::count when clean.
field scan_written_for_nonfinite(const std::vector<access>& accs,
                                 const domain& d);

}  // namespace lulesh::graph
