// dist/cluster.hpp
//
// Multi-domain (distributed-style) LULESH: the global problem is decomposed
// into z-slabs, each owning a `domain` slice with ghost storage at interior
// boundaries.  Slabs communicate through amt channels — the in-process
// analogue of HPX's distributed channels — exchanging per-iteration:
//
//   (1) boundary element-plane corner forces (stress + hourglass), so that
//       nodal force gathers on shared node planes sum the contributions of
//       both slabs in global element order (bitwise equal to a single-domain
//       run, which the tests verify);
//   (2) boundary element-plane delv_zeta values for the monotonic-Q
//       face-neighbor stencil.
//
// Time-step constraints are min-reduced across slabs, so the global dt —
// and therefore the entire simulation — matches the single-domain run
// exactly.  This implements the paper's future-work direction ("extend to
// multi-node environments ... benefits from asynchronous mechanisms of HPX
// instead of the mostly synchronous data exchanges of MPI") as a
// single-process simulation of the decomposition.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "amt/channel.hpp"
#include "lulesh/domain.hpp"

namespace lulesh::dist {

/// Flat halo message.  Corner messages hold 6 arrays (fx, fy, fz stress then
/// hourglass) of elems_per_plane*8 values; delv messages hold
/// elems_per_plane values.  Every message carries one extra trailing real_t
/// slot whose bytes hold a CRC-32C of the payload; unpack_* verifies it and
/// fails the iteration (simulation_error with status::data_corruption) if a
/// bit flipped in transit.
using plane_buffer = std::vector<real_t>;

/// Retransmit cache for one directed message stream of a boundary.  When
/// the driver's retry layer is enabled, the sender parks a pristine copy of
/// each packed message here before committing it to the channel; a dropped
/// or corrupt delivery is then healed by re-delivering the cached copy
/// (dist/retry_policy.hpp) instead of failing the iteration.  `packed_seq`
/// advances when a message is cached, `sent_seq` when it is delivered —
/// packed_seq > sent_seq marks an in-flight message the driver's poll loop
/// may need to resend.
struct retransmit_slot {
    std::mutex mu;
    plane_buffer payload;
    std::uint64_t packed_seq = 0;
    std::uint64_t sent_seq = 0;
    int attempts = 0;  ///< delivery attempts beyond the original send
    std::chrono::steady_clock::time_point last_attempt{};

    void reset() {
        std::lock_guard lk(mu);
        payload.clear();
        packed_seq = 0;
        sent_seq = 0;
        attempts = 0;
        last_attempt = {};
    }
};

/// Channels across one interior boundary (between slab b and slab b+1).
/// "up" flows from slab b to slab b+1.  Each channel pairs with the
/// retransmit cache of its sender.
struct boundary_channels {
    amt::channel<plane_buffer> corner_up;
    amt::channel<plane_buffer> corner_down;
    amt::channel<plane_buffer> delv_up;
    amt::channel<plane_buffer> delv_down;

    retransmit_slot corner_up_tx;
    retransmit_slot corner_down_tx;
    retransmit_slot delv_up_tx;
    retransmit_slot delv_down_tx;
};

/// The four directed message streams of a boundary, in the order the
/// members of boundary_channels are declared.  Used to index channels,
/// retransmit slots, and fault-site labels uniformly.
enum class halo_stream : int {
    corner_up = 0,
    corner_down = 1,
    delv_up = 2,
    delv_down = 3
};
inline constexpr int num_halo_streams = 4;

[[nodiscard]] const char* halo_stream_name(halo_stream which) noexcept;
[[nodiscard]] amt::channel<plane_buffer>& stream_channel(boundary_channels& b,
                                                         halo_stream which);
[[nodiscard]] retransmit_slot& stream_slot(boundary_channels& b,
                                           halo_stream which);

/// The set of slab domains plus their connecting channels.
class cluster {
public:
    /// Splits `opts.size` element planes as evenly as possible over
    /// `num_slabs` slabs (the first size % num_slabs slabs get one extra
    /// plane).  Requires 1 <= num_slabs <= opts.size.
    cluster(const options& opts, index_t num_slabs);

    [[nodiscard]] index_t num_slabs() const noexcept {
        return static_cast<index_t>(slabs_.size());
    }
    [[nodiscard]] domain& slab(index_t i) {
        return *slabs_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] const domain& slab(index_t i) const {
        return *slabs_[static_cast<std::size_t>(i)];
    }
    /// Channels between slab b and slab b+1, b in [0, num_slabs-1).
    [[nodiscard]] boundary_channels& boundary(index_t b) {
        return *channels_[static_cast<std::size_t>(b)];
    }

    /// Fails the whole halo fabric: closes every channel of every boundary,
    /// so all pending and future get() futures resolve with
    /// amt::channel_closed instead of waiting for a message that is never
    /// coming.  This is how a failed slab propagates its error to its
    /// peers — every slab's chain resolves (exceptionally) and the driver's
    /// final barrier cannot hang.  Idempotent and thread-safe; the cluster
    /// is not reusable for further iterations afterwards.
    void close_channels() {
        for (auto& b : channels_) {
            b->corner_up.close();
            b->corner_down.close();
            b->delv_up.close();
            b->delv_down.close();
        }
    }

    /// Re-wires a halo fabric failed by close_channels(): every channel is
    /// reopened (same channel objects — the driver's cached handles stay
    /// valid) and every retransmit cache is cleared, so the next iteration
    /// starts from a clean fabric.  Only valid at a quiescent point — after
    /// the failed iteration's chains have all settled — which the recovery
    /// layer (dist/resilient_dist) guarantees by construction.
    void reopen_channels();

    /// Replaces slab `i` with a freshly constructed domain over the same
    /// extent — the recovery path for a confirmed slab death, where the old
    /// domain's memory is presumed lost/poisoned.  The new domain is at the
    /// entry state; the caller restores it from the slab's checkpoint chain.
    void rebuild_slab(index_t i);

    [[nodiscard]] const options& problem() const noexcept { return opts_; }

    /// Shared simulation clock (all slabs advance in lockstep; slab 0 is
    /// authoritative for reporting).
    [[nodiscard]] real_t time() const { return slab(0).time_; }
    [[nodiscard]] int cycle() const { return slab(0).cycle; }

private:
    options opts_;
    std::vector<std::unique_ptr<domain>> slabs_;
    // unique_ptr because boundary_channels holds mutexes (retransmit
    // slots), which are neither movable nor copyable.
    std::vector<std::unique_ptr<boundary_channels>> channels_;
};

// --- halo pack/unpack helpers -------------------------------------------

/// Where a halo message came from, for CRC-failure reporting parity with
/// checkpoint_error: the boundary index and direction name make a corrupt
/// message attributable.  Default (-1, "") marks a direct pack/unpack with
/// no fabric context (the BSP exchange and unit tests).
struct halo_message_info {
    index_t boundary = -1;
    const char* direction = "";
};

/// Packs the corner forces (stress + hourglass) of the element plane
/// starting at `elem_base` into a flat buffer.
plane_buffer pack_corner_plane(const domain& d, index_t elem_base);

/// Unpacks a neighbor's corner-plane message into the ghost slots starting
/// at `ghost_slot`.  A CRC mismatch throws simulation_error with
/// status::data_corruption naming the boundary/direction (when given) and
/// the expected-vs-actual CRC.
void unpack_corner_ghosts(domain& d, index_t ghost_slot,
                          const plane_buffer& buf,
                          const halo_message_info& info = {});

/// Packs delv_zeta of the element plane starting at `elem_base`.
plane_buffer pack_delv_plane(const domain& d, index_t elem_base);

/// Unpacks a neighbor's delv_zeta plane into the ghost slots.  CRC-failure
/// reporting as for unpack_corner_ghosts.
void unpack_delv_ghosts(domain& d, index_t ghost_slot, const plane_buffer& buf,
                        const halo_message_info& info = {});

}  // namespace lulesh::dist
