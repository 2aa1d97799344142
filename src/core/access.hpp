// core/access.hpp
//
// The iteration table and its declarative access sets.  The table
// (build_iteration_table) is the ONE description of a leapfrog iteration
// of one slab: each task_decl names the call it makes (a body_kind plus
// its chunk, region and slot), its stage and its continuation edges.  Each
// task is one chunk of one wave, running that chunk's consecutive kernels
// in one body (trick T3), so the waves need no edges: the four barriers
// order them, and only a slab's halo sends carry edges.  A lone domain has
// no neighbour, so its table is the four waves alone.
// core/compiled_iteration compiles the table into the replayed static
// graph; the same table, with every task's access set expanded from its
// bodies' declarations (below), feeds two checkers:
//
//   * the static audit pass (core/graph_audit.*) walks the declarative
//     model of one iteration and proves that every read-write and
//     write-write overlap between tasks is ordered by a declared
//     continuation edge or a surviving barrier — turning the
//     paper's hand-reasoned "the elided dependencies are element-local"
//     claim (trick T2) into a checkable property;
//
//   * the dynamic shadow-epoch tracker (amt/hazard.*) stamps the declared
//     sets of in-flight tasks into shadow arrays and flags overlapping
//     stamps as races.
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
// lulesh/fields.hpp, where the checkpoint records name their fields too;
// re-exported here for the graph model's consumers.
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
/// dt partial count, which is not a domain property).
std::size_t space_extent(space s, const domain& d, std::size_t slots);

// --- per-body access declarations ----------------------------------------
//
// Each wave_body:: function of graph_waves.hpp declares the fields it uses
// once: a constexpr array of the same name in access.cpp lists every field,
// its mode and its closure, with no bounds.  accesses_of supplies them: a
// task's chunk [lo, hi), indexed through the region's element list for the
// region bodies, and [slot, slot + 1) for the slot-space dt_partial.  A
// table task runs one or more bodies over one chunk, and its access set is
// their declarations in body order.  Everything that reads access sets —
// the static audit, the shadow tracker, the NaN scan, perfbench — reads
// that expansion.  tools/amtlint's AMT003 checks each declaration against
// every field access of the kernels its body reaches, and the adversarial
// audit tests flag a declaration that shrinks below what the ordering
// needs.

// --- the iteration table ----------------------------------------------------

/// The call a table task makes.  The first five run wave_body:: calls
/// (graph_waves.hpp) in the compiled graph's task nodes, one task per
/// chunk per wave (trick T3):
///   force_stress, force_hourglass  one body each (stage 0, T4);
///   node    node_gather, then node_velpos (stage 1);
///   elem    elem_fused, then volume_update (stage 2);
///   region  region_monoq, region_eos, then the chunk's constraints
///           partial (stage 3).
/// The halo kinds are a slab's boundary steps, one set per neighbour,
/// whose bodies the driver supplies; ckpt_pack is an overlapped
/// checkpoint pack (add_checkpoint_pack_tasks), which the driver runs as
/// external dependencies of the graph rather than as nodes.
enum class body_kind : std::uint8_t {
    force_stress,
    force_hourglass,
    node,
    elem,
    region,
    pack_corner,    ///< send the owned boundary plane's corner forces
    unpack_corner,  ///< receive the neighbor's plane into the ghost slots
    pack_delv,      ///< send the owned boundary plane's delv_zeta
    unpack_delv,    ///< receive the neighbor's delv_zeta ghost plane
    ckpt_pack,
    slab_liveness   ///< the heartbeat/kill-switch step of a slab with a
                    ///< neighbour, last in its table
};

/// True for the kinds whose body runs wave_body:: calls.
[[nodiscard]] constexpr bool is_wave_body(body_kind k) noexcept {
    return k <= body_kind::region;
}

/// One task of the modelled iteration.
struct task_decl {
    const char* site = nullptr;  ///< sub-site label, e.g. "force.stress"
    index_t partition = 0;       ///< partition ordinal within the wave; for
                                 ///< halo tasks 0 = lower, 1 = upper boundary
    index_t lo = 0;              ///< the chunk the body runs over: element or
    index_t hi = 0;              ///< node range, region-list positions, or
                                 ///< the halo plane
    int stage = 0;               ///< barrier interval the task runs in (0-3)
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
    index_t slot = -1;    ///< dt partial slot (region) or checkpoint field
                          ///< slot (ckpt_pack)
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

/// The compact table of one iteration of slab `d` with partition sizes
/// `parts`: every task's body, stage and edges, no access sets.  Region
/// contents and the domain's address are not part of it — task bodies
/// read the region lists from the domain they are bound to.
///
/// After the four waves come the halo tasks of each boundary `d` has a
/// neighbour across (partition 0 = lower, 1 = upper):
///
///   stage 0  pack_corner   reads the owned boundary plane of the six
///                          corner-force arrays — ordered after exactly the
///                          force tasks that write that plane;
///            unpack_corner writes the neighbour's plane into the ghost
///                          slots — with NO ordering edge, so the audit
///                          must prove the ghost region disjoint from every
///                          owned-plane access of the wave;
///   stage 2  pack_delv     reads the owned boundary plane of delv_zeta
///                          (same gating as pack_corner);
///            unpack_delv   writes the delv_zeta ghost plane, again with no
///                          edge.
///
/// Last, when `d` has any neighbour, comes its liveness task: a stage-0
/// root that stamps the slab's heartbeat and passes its slab_kill:<slab>
/// fault site.  It reads and writes no field.  A neighbourless domain gets
/// the four waves alone.
graph_model build_iteration_table(const domain& d, partition_sizes parts);

/// build_iteration_table with every task's access set filled in — the
/// form the static audit reads.
graph_model build_iteration_model(const domain& d, partition_sizes parts);

/// The declared accesses of task `t` on `d` (region tasks expand against
/// d's region lists).
std::vector<access> accesses_of(const task_decl& t, const domain& d);

/// Fills every task's access set from accesses_of.
void fill_accesses(graph_model& m, const domain& d);

/// The last stage an overlapped checkpoint pack of field `f` may still be
/// running in, which names the barrier it gates: 0 for node fields (B1,
/// ahead of the node wave that writes coordinates and velocities), 1 for
/// v (B2, ahead of the element wave's volume update), 2 for the other
/// element fields (B3, ahead of the region wave that writes e/p/q/ss).
[[nodiscard]] int checkpoint_pack_last_stage(field f) noexcept;

/// Appends the overlapped checkpoint-packing tasks the drivers run when
/// the resilient loop hands them a capture: one read-only task per
/// checkpointed field, modelled conservatively over the field's full
/// extent, spanning stages 0 through checkpoint_pack_last_stage.  The
/// audit over this extended model is the proof that packing never races
/// the compute it overlaps.
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
