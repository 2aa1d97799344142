// lulesh/kernels.hpp
//
// The LULESH computational kernels as free functions over explicit index
// ranges, so that every driver (serial, parallel-for, task-graph) invokes
// the same arithmetic on the chunk decomposition of its choice — results are
// bitwise identical across drivers by construction (nodal gathers use fixed
// per-node summation order).
//
// Two granularities are provided where the paper distinguishes them:
//  * loop-granular kernels mirror the reference's individual parallel loops
//    (used by the serial driver and by the fork-join step behind the
//    parallel_for, openmp and foreach drivers, which keep the
//    barrier-after-every-loop structure of the OpenMP reference);
//  * fused chunk kernels combine consecutive loops into one body with
//    task-local temporaries (paper tricks T3+T5; used by the task driver).
//
// Kernels that can detect an error condition (non-positive volumes, q
// exceeding qstop) return `true` on success instead of aborting like the
// reference; drivers aggregate the flags at their synchronization points.
//
// The stress, hourglass, kinematics and monotonic-Q gradient kernels run
// simd::width consecutive elements per SIMD vector, and the EOS
// simd::width entries of a region list, with the rest of their range one
// element at a time (lulesh/simd.hpp); either way each element's results
// are bitwise those of the scalar evaluation.

#pragma once

#include <span>
#include <vector>

#include "lulesh/domain.hpp"
#include "lulesh/types.hpp"

namespace lulesh::kernels {

// ===================== LagrangeNodal: element-wise force =====================

/// sig = -p - q for elements [lo, hi); outputs indexed by global element id.
void init_stress_terms(const domain& d, index_t lo, index_t hi, real_t* sigxx,
                       real_t* sigyy, real_t* sigzz);

/// Integrates the stress over elements [lo, hi), writing the eight corner
/// forces of each element into d.fx_elem/fy_elem/fz_elem.  Returns false if
/// any element Jacobian determinant is non-positive.
bool integrate_stress(domain& d, index_t lo, index_t hi, const real_t* sigxx,
                      const real_t* sigyy, const real_t* sigzz);

/// Hourglass control for elements [lo, hi): volume derivatives, corner
/// coordinates, and determ = volo * v.  Outputs indexed globally
/// (elem*8+corner for the first six, elem for determ).  Returns false on a
/// non-positive element volume.
bool calc_hourglass_control(domain& d, index_t lo, index_t hi, real_t* dvdx,
                            real_t* dvdy, real_t* dvdz, real_t* x8n,
                            real_t* y8n, real_t* z8n, real_t* determ);

/// Flanagan-Belytschko hourglass force for elements [lo, hi); reads the
/// arrays produced by calc_hourglass_control (globally indexed) and writes
/// corner forces into d.fx_elem_hg/fy_elem_hg/fz_elem_hg.
void calc_fb_hourglass_force(domain& d, index_t lo, index_t hi,
                             const real_t* dvdx, const real_t* dvdy,
                             const real_t* dvdz, const real_t* x8n,
                             const real_t* y8n, const real_t* z8n,
                             const real_t* determ, real_t hgcoef);

/// Fused task bodies (paper T3+T5): same arithmetic as the loop-granular
/// kernels above but with chunk-local temporaries.
bool force_stress_chunk(domain& d, index_t lo, index_t hi);
bool force_hourglass_chunk(domain& d, index_t lo, index_t hi);

// ===================== LagrangeNodal: node-wise =====================

/// fx = (sum of stress corner forces) + (sum of hourglass corner forces)
/// for nodes [lo, hi), in ascending corner order (deterministic).
void gather_forces(domain& d, index_t lo, index_t hi);

/// xdd = fx / nodalMass for nodes [lo, hi).
void calc_acceleration(domain& d, index_t lo, index_t hi);

/// Zeroes the symmetry-plane acceleration components for nodes [lo, hi)
/// using the per-node mask (task-driver formulation; same effect as the
/// reference's three loops over the symmetry node lists).
void apply_acceleration_bc_masked(domain& d, index_t lo, index_t hi);

/// Reference-style BC loops over slices of the symmetry node lists.
void apply_acceleration_bc_x(domain& d, index_t lo, index_t hi);
void apply_acceleration_bc_y(domain& d, index_t lo, index_t hi);
void apply_acceleration_bc_z(domain& d, index_t lo, index_t hi);

/// xd += xdd * dt with the u_cut snap-to-zero, nodes [lo, hi).
void calc_velocity(domain& d, index_t lo, index_t hi, real_t dt);

/// x += xd * dt, nodes [lo, hi).
void calc_position(domain& d, index_t lo, index_t hi, real_t dt);

/// Fused velocity+position task body (paper Figure 7's example fusion).
void velocity_position_chunk(domain& d, index_t lo, index_t hi, real_t dt);

// ===================== LagrangeElements =====================

/// Kinematics for elements [lo, hi): new relative volume (vnew), delv,
/// characteristic length, and principal strain rates dxx/dyy/dzz evaluated
/// at the half step.
void calc_kinematics(domain& d, index_t lo, index_t hi, real_t dt);

/// vdov and deviatoric strain rates for elements [lo, hi); returns false if
/// any vnew is non-positive (the reference's VolumeError abort).
bool calc_lagrange_deviatoric(domain& d, index_t lo, index_t hi);

/// Monotonic Q velocity/position gradients for elements [lo, hi).
void calc_monotonic_q_gradients(domain& d, index_t lo, index_t hi);

/// Monotonic Q (ql, qq) for the slice [lo, hi) of a region's element list.
void calc_monotonic_q_region(domain& d, const index_t* reg_elem_list,
                             index_t lo, index_t hi);

/// Checks q <= qstop over elements [lo, hi); returns false on violation.
bool check_qstop(const domain& d, index_t lo, index_t hi);

/// vnewc = vnew clamped to [eosvmin, eosvmax] for elements [lo, hi), plus
/// the reference's relative-volume sanity check on v (returns false on
/// error).
bool apply_material_vnewc(domain& d, index_t lo, index_t hi);

/// v = vnew (with v_cut snap to 1.0) for elements [lo, hi).
void update_volumes(domain& d, index_t lo, index_t hi);

// ===================== EOS =====================
//
// The EOS arithmetic is written once, per element, in lulesh/eos.hpp.  The
// task driver runs it through eval_eos_chunk, the fork-join step through
// visit_eos_phases; both give bitwise the same p, e, q and ss.

/// The reference's EOS work arrays, for the fork-join step's loops over one
/// region at a time (reference_scratch::eos, sized to each region in turn,
/// as the reference allocates per call).  The task body holds its values in
/// registers and allocates none.
struct eos_scratch {
    std::vector<real_t> e_old, delvc, p_old, q_old, qq_old, ql_old;
    std::vector<real_t> compression, comp_half_step, work;
    std::vector<real_t> p_new, e_new, q_new, bvc, pbvc, p_half_step;

    void resize(std::size_t n);
};

/// Persistent global temporaries of the loop-granular drivers, mirroring the
/// reference's per-call allocations: the stress terms, the hourglass-control
/// arrays (globally indexed, see calc_hourglass_control) and the EOS work
/// arrays.
struct reference_scratch {
    std::vector<real_t> sigxx, sigyy, sigzz;
    std::vector<real_t> dvdx, dvdy, dvdz, x8n, y8n, z8n, determ;
    eos_scratch eos;

    /// Sizes the stress and hourglass arrays for `num_elem` elements.
    void resize(index_t num_elem);
};

/// One EOS phase as one loop over the local indices [lo, hi) of a region
/// element list, its work arrays in `s` at those indices.
using eos_phase = void (*)(domain& d, const index_t* list, index_t lo,
                           index_t hi, eos_scratch& s);

/// The phases of one repetition (gathers, compression and clamps, energy,
/// pressure and viscosity), in the reference's order
/// (eos::visit_eos_repetition).
std::span<const eos_phase> eos_repetition_phases();

/// Writes p_new, e_new and q_new to the region's p, e and q.
void eos_store(domain& d, const index_t* list, index_t lo, index_t hi,
               eos_scratch& s);

/// Writes the sound speed of the final values to the region's ss.
void eos_sound_speed(domain& d, const index_t* list, index_t lo, index_t hi,
                     eos_scratch& s);

/// The reference EOS pipeline (EvalEOSForElems) as its ordered list of
/// loops: hands each phase to `visit` — the repetition's phases `rep`
/// times, then the store and sound-speed phases.  The fork-join step runs
/// every phase as its own parallel loop.
template <class Visit>
void visit_eos_phases(int rep, Visit&& visit) {
    for (int j = 0; j < rep; ++j) {
        for (const eos_phase phase : eos_repetition_phases()) visit(phase);
    }
    visit(eos_store);
    visit(eos_sound_speed);
}

/// Fused task body: the complete EOS pipeline, repeated `rep` times, on the
/// slice [lo, hi) of a region's element list (paper tricks T3+T5).  Runs
/// simd::width entries of the slice per vector, the rest one at a time;
/// each block's work values stay in registers, so it needs no scratch.
void eval_eos_chunk(domain& d, const index_t* list, index_t lo, index_t hi,
                    int rep);

/// Returns the reference's EOS repetition count for region r: 1x for the
/// cheap half, (1+cost)x for the mid tier, 10*(1+cost)x for the top ~5%.
int eos_rep_for_region(const domain& d, index_t r);

// ===================== time constraints =====================

struct dt_constraints {
    real_t dtcourant = real_t(1.0e20);
    real_t dthydro = real_t(1.0e20);
};

/// Courant and hydro dt constraints over the slice [lo, hi) of a region's
/// element list (min-reduction partials; caller combines with min).
dt_constraints calc_time_constraints(const domain& d,
                                     const index_t* reg_elem_list, index_t lo,
                                     index_t hi);

/// Combines two constraint partials.
dt_constraints min_constraints(const dt_constraints& a,
                               const dt_constraints& b);

/// Computes the next time increment from the accumulated constraints and
/// advances time/cycle (the reference's TimeIncrement).
void time_increment(domain& d);

}  // namespace lulesh::kernels
