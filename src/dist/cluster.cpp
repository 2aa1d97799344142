// dist/cluster.cpp — slab construction and halo pack/unpack.

#include "dist/cluster.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "lulesh/crc32c.hpp"
#include "lulesh/driver.hpp"

namespace lulesh::dist {

namespace {

// Halo messages carry a trailing real_t slot whose low 4 bytes hold a
// CRC-32C of the payload (bit-copied, never interpreted as a double — the
// arbitrary bit pattern could be a signalling NaN).  pack_* sizes the
// buffer for the slot up front and seals it, unpack_* verifies it: a
// payload corrupted in transit fails the iteration through the
// data_corruption status instead of silently skewing the neighbor's force
// sums.  Every message is checksummed twice per cycle on the critical
// path, which CRC-32C affords because it runs in hardware
// (lulesh/crc32c.hpp).

/// Writes the CRC-32C of buf[0, buf.size() - 1) into the last slot.
void seal_crc(plane_buffer& buf) {
    const std::size_t payload = buf.size() - 1;
    const std::uint32_t crc =
        crc32c_of(buf.data(), payload * sizeof(real_t));
    real_t slot = real_t(0);
    std::memcpy(&slot, &crc, sizeof(crc));
    buf[payload] = slot;
}

std::string hex32(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08X", v);
    return buf;
}

void verify_crc(const plane_buffer& buf, std::size_t payload, const char* what,
                const halo_message_info& info) {
    std::uint32_t stored = 0;
    std::memcpy(&stored, &buf[payload], sizeof(stored));
    const std::uint32_t actual =
        crc32c_of(buf.data(), payload * sizeof(real_t));
    if (actual != stored) {
        // Reporting parity with checkpoint_error: name where the message
        // came from and both CRCs, so a corrupt halo is as attributable as
        // a corrupt checkpoint record.
        std::string where =
            info.boundary >= 0
                ? "boundary " + std::to_string(info.boundary) + ", direction " +
                      info.direction
                : std::string("direct unpack");
        throw simulation_error(
            status::data_corruption,
            std::string("lulesh::dist: ") + what +
                " halo message failed its CRC check (" + where +
                ", expected " + hex32(stored) + ", actual " + hex32(actual) +
                ")");
    }
}

}  // namespace

const char* halo_stream_name(halo_stream which) noexcept {
    switch (which) {
        case halo_stream::corner_up: return "corner_up";
        case halo_stream::corner_down: return "corner_down";
        case halo_stream::delv_up: return "delv_up";
        default: return "delv_down";
    }
}

amt::channel<plane_buffer>& stream_channel(boundary_channels& b,
                                           halo_stream which) {
    switch (which) {
        case halo_stream::corner_up: return b.corner_up;
        case halo_stream::corner_down: return b.corner_down;
        case halo_stream::delv_up: return b.delv_up;
        default: return b.delv_down;
    }
}

retransmit_slot& stream_slot(boundary_channels& b, halo_stream which) {
    switch (which) {
        case halo_stream::corner_up: return b.corner_up_tx;
        case halo_stream::corner_down: return b.corner_down_tx;
        case halo_stream::delv_up: return b.delv_up_tx;
        default: return b.delv_down_tx;
    }
}

cluster::cluster(const options& opts, index_t num_slabs) : opts_(opts) {
    if (num_slabs < 1 || num_slabs > opts.size) {
        throw std::invalid_argument(
            "lulesh::dist: num_slabs must be in [1, size]");
    }
    const index_t base = opts.size / num_slabs;
    const index_t rem = opts.size % num_slabs;
    index_t begin = 0;
    slabs_.reserve(static_cast<std::size_t>(num_slabs));
    for (index_t i = 0; i < num_slabs; ++i) {
        const index_t planes = base + (i < rem ? 1 : 0);
        slabs_.push_back(std::make_unique<domain>(
            opts, slab_extent{begin, begin + planes, opts.size}));
        begin += planes;
    }
    channels_.reserve(static_cast<std::size_t>(num_slabs - 1));
    for (index_t b = 0; b + 1 < num_slabs; ++b) {
        channels_.push_back(std::make_unique<boundary_channels>());
    }
}

void cluster::reopen_channels() {
    for (auto& b : channels_) {
        b->corner_up.reopen();
        b->corner_down.reopen();
        b->delv_up.reopen();
        b->delv_down.reopen();
        b->corner_up_tx.reset();
        b->corner_down_tx.reset();
        b->delv_up_tx.reset();
        b->delv_down_tx.reset();
    }
}

void cluster::rebuild_slab(index_t i) {
    const slab_extent extent = slab(i).slab();
    slabs_[static_cast<std::size_t>(i)] =
        std::make_unique<domain>(opts_, extent);
}

plane_buffer pack_corner_plane(const domain& d, index_t elem_base) {
    const auto n = static_cast<std::size_t>(d.elems_per_plane()) * 8;
    plane_buffer buf(6 * n + 1);  // + the CRC slot: sealing never reallocates
    const auto base = static_cast<std::size_t>(elem_base) * 8;
    const std::vector<real_t>* arrays[6] = {&d.fx_elem,    &d.fy_elem,
                                            &d.fz_elem,    &d.fx_elem_hg,
                                            &d.fy_elem_hg, &d.fz_elem_hg};
    for (std::size_t a = 0; a < 6; ++a) {
        const real_t* src = arrays[a]->data() + base;
        real_t* dst = buf.data() + a * n;
        for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
    seal_crc(buf);
    return buf;
}

void unpack_corner_ghosts(domain& d, index_t ghost_slot,
                          const plane_buffer& buf,
                          const halo_message_info& info) {
    const auto n = static_cast<std::size_t>(d.elems_per_plane()) * 8;
    if (buf.size() != 6 * n + 1) {
        throw std::invalid_argument("lulesh::dist: corner message size mismatch");
    }
    verify_crc(buf, 6 * n, "corner", info);
    const auto base = static_cast<std::size_t>(ghost_slot) * 8;
    std::vector<real_t>* arrays[6] = {&d.fx_elem,    &d.fy_elem,
                                      &d.fz_elem,    &d.fx_elem_hg,
                                      &d.fy_elem_hg, &d.fz_elem_hg};
    for (std::size_t a = 0; a < 6; ++a) {
        const real_t* src = buf.data() + a * n;
        real_t* dst = arrays[a]->data() + base;
        for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    }
}

plane_buffer pack_delv_plane(const domain& d, index_t elem_base) {
    const auto n = static_cast<std::size_t>(d.elems_per_plane());
    plane_buffer buf(n + 1);  // + the CRC slot
    const real_t* src = d.delv_zeta.data() + static_cast<std::size_t>(elem_base);
    for (std::size_t i = 0; i < n; ++i) buf[i] = src[i];
    seal_crc(buf);
    return buf;
}

void unpack_delv_ghosts(domain& d, index_t ghost_slot, const plane_buffer& buf,
                        const halo_message_info& info) {
    const auto n = static_cast<std::size_t>(d.elems_per_plane());
    if (buf.size() != n + 1) {
        throw std::invalid_argument("lulesh::dist: delv message size mismatch");
    }
    verify_crc(buf, n, "delv", info);
    real_t* dst = d.delv_zeta.data() + static_cast<std::size_t>(ghost_slot);
    for (std::size_t i = 0; i < n; ++i) dst[i] = buf[i];
}

}  // namespace lulesh::dist
