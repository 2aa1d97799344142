// lulesh/fields.hpp
//
// The catalog of domain fields the task waves touch, as a small enum shared
// by the declarative access sets (core/access), which declare each wave
// body's fields once, and the static/dynamic hazard auditors that read
// them.  Scalar control state (dt, cut-offs, monoq coefficients) is
// excluded — scalars are read-only during an iteration and cannot race.
//
// Depends only on types.hpp; the generic shadow tracker (amt/hazard.hpp)
// identifies fields by their integer value.

#pragma once

#include <cstddef>
#include <cstdint>

#include "lulesh/types.hpp"

namespace lulesh {

enum class field : std::uint8_t {
    // node-centered: [0, numNode)
    x,
    y,
    z,
    xd,
    yd,
    zd,
    xdd,
    ydd,
    zdd,
    fx,
    fy,
    fz,
    nodal_mass,
    symm_mask,
    // element-centered: [0, numElem)
    e,
    p,
    q,
    ql,
    qq,
    v,
    volo,
    delv,
    vdov,
    arealg,
    ss,
    elem_mass,
    elem_bc,
    dxx,
    dyy,
    dzz,
    delv_xi,
    delv_eta,
    delv_zeta,
    delx_xi,
    delx_eta,
    delx_zeta,
    vnew,
    vnewc,
    // corner-centered: [0, corner extent), laid out elem*8 + corner.  The
    // corner extent can exceed numElem*8 (halo ghost planes in dist slabs).
    fx_elem,
    fy_elem,
    fz_elem,
    fx_elem_hg,
    fy_elem_hg,
    fz_elem_hg,
    // per-task reduction slots: [0, constraint_slot_count)
    dt_partial,
    count
};

constexpr std::size_t num_fields = static_cast<std::size_t>(field::count);

/// Index space a field is defined over.
enum class space : std::uint8_t { node, elem, corner, slot };

constexpr space field_space(field f) noexcept {
    switch (f) {
        case field::x:
        case field::y:
        case field::z:
        case field::xd:
        case field::yd:
        case field::zd:
        case field::xdd:
        case field::ydd:
        case field::zdd:
        case field::fx:
        case field::fy:
        case field::fz:
        case field::nodal_mass:
        case field::symm_mask:
            return space::node;
        case field::fx_elem:
        case field::fy_elem:
        case field::fz_elem:
        case field::fx_elem_hg:
        case field::fy_elem_hg:
        case field::fz_elem_hg:
            return space::corner;
        case field::dt_partial:
            return space::slot;
        default:
            return space::elem;
    }
}

constexpr const char* field_name(field f) noexcept {
    switch (f) {
        case field::x: return "x";
        case field::y: return "y";
        case field::z: return "z";
        case field::xd: return "xd";
        case field::yd: return "yd";
        case field::zd: return "zd";
        case field::xdd: return "xdd";
        case field::ydd: return "ydd";
        case field::zdd: return "zdd";
        case field::fx: return "fx";
        case field::fy: return "fy";
        case field::fz: return "fz";
        case field::nodal_mass: return "nodalMass";
        case field::symm_mask: return "symm_mask";
        case field::e: return "e";
        case field::p: return "p";
        case field::q: return "q";
        case field::ql: return "ql";
        case field::qq: return "qq";
        case field::v: return "v";
        case field::volo: return "volo";
        case field::delv: return "delv";
        case field::vdov: return "vdov";
        case field::arealg: return "arealg";
        case field::ss: return "ss";
        case field::elem_mass: return "elemMass";
        case field::elem_bc: return "elemBC";
        case field::dxx: return "dxx";
        case field::dyy: return "dyy";
        case field::dzz: return "dzz";
        case field::delv_xi: return "delv_xi";
        case field::delv_eta: return "delv_eta";
        case field::delv_zeta: return "delv_zeta";
        case field::delx_xi: return "delx_xi";
        case field::delx_eta: return "delx_eta";
        case field::delx_zeta: return "delx_zeta";
        case field::vnew: return "vnew";
        case field::vnewc: return "vnewc";
        case field::fx_elem: return "fx_elem";
        case field::fy_elem: return "fy_elem";
        case field::fz_elem: return "fz_elem";
        case field::fx_elem_hg: return "fx_elem_hg";
        case field::fy_elem_hg: return "fy_elem_hg";
        case field::fz_elem_hg: return "fz_elem_hg";
        case field::dt_partial: return "dt_partial";
        case field::count: break;
    }
    return "?";
}

}  // namespace lulesh
