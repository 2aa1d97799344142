// lulesh/domain.cpp — Domain construction: allocate all fields, then build
// mesh geometry/connectivity and the region decomposition.  Both the
// single-domain and the slab (multi-domain) constructors funnel through the
// same allocation path; a single-domain build is simply the slab
// [0, size) with no neighbors and therefore no ghost storage.

#include "lulesh/domain.hpp"

#include <stdexcept>

namespace lulesh {

domain::domain(const options& opts)
    : domain(opts, slab_extent{0, opts.size, opts.size}) {}

domain::domain(const options& opts, const slab_extent& slab) : slab_(slab) {
    if (opts.size < 1) {
        throw std::invalid_argument("lulesh: problem size must be >= 1");
    }
    if (opts.num_regions < 1) {
        throw std::invalid_argument("lulesh: number of regions must be >= 1");
    }
    if (slab.total_planes != opts.size || slab.plane_begin < 0 ||
        slab.plane_end > slab.total_planes ||
        slab.plane_begin >= slab.plane_end) {
        throw std::invalid_argument("lulesh: invalid slab extent");
    }

    edge_elems_ = opts.size;
    edge_nodes_ = opts.size + 1;
    const index_t planes = slab.local_planes();
    num_elem_ = edge_elems_ * edge_elems_ * planes;
    num_node_ = edge_nodes_ * edge_nodes_ * (planes + 1);
    check_region_cost(opts.cost);
    cost_ = opts.cost;

    const auto ne = static_cast<std::size_t>(num_elem_);
    const auto nn = static_cast<std::size_t>(num_node_);

    // Ghost element slots at interior slab boundaries (corner forces and
    // delv_zeta only; every other field is purely local).
    const std::size_t ghosts =
        static_cast<std::size_t>(elems_per_plane()) *
        ((has_lower_neighbor() ? 1u : 0u) + (has_upper_neighbor() ? 1u : 0u));

    // Node-centered.
    x.assign(nn, 0.0);
    y.assign(nn, 0.0);
    z.assign(nn, 0.0);
    xd.assign(nn, 0.0);
    yd.assign(nn, 0.0);
    zd.assign(nn, 0.0);
    xdd.assign(nn, 0.0);
    ydd.assign(nn, 0.0);
    zdd.assign(nn, 0.0);
    fx.assign(nn, 0.0);
    fy.assign(nn, 0.0);
    fz.assign(nn, 0.0);
    nodalMass.assign(nn, 0.0);
    symm_mask.assign(nn, 0);

    // Element-centered.
    e.assign(ne, 0.0);
    p.assign(ne, 0.0);
    q.assign(ne, 0.0);
    ql.assign(ne, 0.0);
    qq.assign(ne, 0.0);
    v.assign(ne, 1.0);
    volo.assign(ne, 0.0);
    delv.assign(ne, 0.0);
    vdov.assign(ne, 0.0);
    arealg.assign(ne, 0.0);
    ss.assign(ne, 0.0);
    elemMass.assign(ne, 0.0);

    lxim.assign(ne, 0);
    lxip.assign(ne, 0);
    letam.assign(ne, 0);
    letap.assign(ne, 0);
    lzetam.assign(ne, 0);
    lzetap.assign(ne, 0);
    elemBC.assign(ne, 0);

    node_list_.assign(ne * 8, 0);

    // Persistent scratch (ghost-extended where the halo exchange writes).
    fx_elem.assign((ne + ghosts) * 8, 0.0);
    fy_elem.assign((ne + ghosts) * 8, 0.0);
    fz_elem.assign((ne + ghosts) * 8, 0.0);
    fx_elem_hg.assign((ne + ghosts) * 8, 0.0);
    fy_elem_hg.assign((ne + ghosts) * 8, 0.0);
    fz_elem_hg.assign((ne + ghosts) * 8, 0.0);
    dxx.assign(ne, 0.0);
    dyy.assign(ne, 0.0);
    dzz.assign(ne, 0.0);
    delv_xi.assign(ne, 0.0);
    delv_eta.assign(ne, 0.0);
    delv_zeta.assign(ne + ghosts, 0.0);
    delx_xi.assign(ne, 0.0);
    delx_eta.assign(ne, 0.0);
    delx_zeta.assign(ne, 0.0);
    vnew.assign(ne, 0.0);
    vnewc.assign(ne, 0.0);

    build_mesh(*this, opts);
    build_regions(*this, opts);
}

}  // namespace lulesh
