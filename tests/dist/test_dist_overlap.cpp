// Checksums and checkpoint packing off the distributed critical path:
// halo messages are sealed with the hardware CRC-32C, and dist::run_resilient
// hands each slab's checkpoint capture to the next cycle's tasks instead of
// packing it on the main thread.
//
// The central claims under test:
//   * a packed halo plane's trailing slot is the CRC-32C of its payload, and
//     the buffer was sized for that slot up front;
//   * overlapped records are byte-identical to synchronously packed ones,
//     and record_hook still fires once per slab per record, in slab order;
//   * a failure in the cycle right after a checkpoint still rolls back to
//     that checkpoint, bitwise identical to a fault-free run;
//   * a faulted pack drops the whole checkpoint, keeping the chains in
//     lockstep;
//   * both exchange modes accept the overlap; single-worker runtimes
//     decline it and still pack synchronously.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "amt/counters.hpp"
#include "amt/fault.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "dist/resilient_dist.hpp"
#include "dist/retry_policy.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/crc32c.hpp"
#include "lulesh/driver.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
using lulesh::dist::cluster;
using lulesh::dist::dist_driver;
using lulesh::dist::plane_buffer;
using lulesh::dist::retry_policy;
using mode = dist_driver::exchange_mode;

options opts(index_t size) {
    options o;
    o.size = size;
    o.num_regions = 11;
    return o;
}

/// Disarms injection and clears fault + resilience-counter state on both
/// entry and exit, so tests stay independent in either run order.
struct fault_guard {
    fault_guard() { reset(); }
    ~fault_guard() { reset(); }
    static void reset() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
        amt::resilience().reset();
    }
};

real_t cluster_vs_global(const cluster& c, const domain& global) {
    real_t max_diff = 0.0;
    auto acc = [&max_diff](real_t a, real_t b) {
        max_diff = std::max(max_diff, std::fabs(a - b));
    };
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        const domain& d = c.slab(s);
        const index_t eoff = d.elem_offset();
        for (index_t e = 0; e < d.numElem(); ++e) {
            const auto le = static_cast<std::size_t>(e);
            const auto ge = static_cast<std::size_t>(eoff + e);
            acc(d.e[le], global.e[ge]);
            acc(d.p[le], global.p[ge]);
            acc(d.q[le], global.q[ge]);
            acc(d.v[le], global.v[ge]);
            acc(d.ss[le], global.ss[ge]);
        }
        const index_t noff = d.slab().plane_begin * d.nodes_per_plane();
        for (index_t n = 0; n < d.numNode(); ++n) {
            const auto ln = static_cast<std::size_t>(n);
            const auto gn = static_cast<std::size_t>(noff + n);
            acc(d.x[ln], global.x[gn]);
            acc(d.y[ln], global.y[gn]);
            acc(d.z[ln], global.z[gn]);
            acc(d.xd[ln], global.xd[gn]);
            acc(d.yd[ln], global.yd[gn]);
            acc(d.zd[ln], global.zd[gn]);
        }
    }
    return max_diff;
}

domain serial_reference(const options& o, int cycles) {
    domain global(o);
    lulesh::serial_driver drv;
    lulesh::run_simulation(global, drv, cycles);
    return global;
}

/// Every record run_resilient commits, per slab, in commit order, plus the
/// slab sequence of the record_hook calls.
struct recorded_run {
    lulesh::resilient_result rr;
    std::vector<std::vector<std::string>> records;
    std::vector<index_t> hook_order;
};

recorded_run run_recorded(cluster& c, dist_driver& drv, int every,
                          int cycles) {
    recorded_run out;
    out.records.resize(static_cast<std::size_t>(c.num_slabs()));
    lulesh::resilience_options ropt;
    ropt.checkpoint_every = every;
    ropt.record_hook = [&out](index_t slab, std::string& rec) {
        out.records[static_cast<std::size_t>(slab)].push_back(rec);
        out.hook_order.push_back(slab);
    };
    out.rr = lulesh::dist::run_resilient(c, drv, ropt, cycles);
    return out;
}

// ---------------- halo checksums ----------------

TEST(DistHaloCrc, TrailingSlotIsCrc32cOfThePayload) {
    // Two cycles in, the corner forces and delv_zeta are non-trivial.
    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48});
    ASSERT_EQ(lulesh::dist::run_simulation(c, drv, 2).run_status,
              lulesh::status::ok);

    const domain& d = c.slab(0);
    const auto ep = static_cast<std::size_t>(d.elems_per_plane());
    const plane_buffer corner =
        lulesh::dist::pack_corner_plane(d, d.top_plane_elem_base());
    const plane_buffer delv =
        lulesh::dist::pack_delv_plane(d, d.top_plane_elem_base());
    ASSERT_EQ(corner.size(), 6 * ep * 8 + 1);
    ASSERT_EQ(delv.size(), ep + 1);
    for (const plane_buffer* buf : {&corner, &delv}) {
        const std::size_t payload = buf->size() - 1;
        std::uint32_t slot = 0;
        std::memcpy(&slot, &(*buf)[payload], sizeof(slot));
        EXPECT_EQ(slot, lulesh::crc32c_of(buf->data(),
                                          payload * sizeof(real_t)));
        // Sized for the slot up front: sealing it did not reallocate.
        EXPECT_EQ(buf->capacity(), buf->size());
    }
}

// ---------------- overlapped checkpoint packing ----------------

TEST(DistOverlap, BothModesAcceptAndASingleWorkerRuntimeDeclines) {
    cluster c(opts(6), 2);
    auto capture = [&c] {
        return std::make_shared<lulesh::state_capture>(c.slab(0));
    };
    amt::runtime rt2(2);
    amt::runtime rt1(1);
    dist_driver futurized(rt2, {48, 48}, mode::futurized);
    dist_driver bsp(rt2, {48, 48}, mode::bulk_synchronous);
    dist_driver one_worker(rt1, {48, 48}, mode::futurized);
    EXPECT_TRUE(futurized.submit_overlapped_capture(0, capture()));
    EXPECT_TRUE(bsp.submit_overlapped_capture(0, capture()));
    EXPECT_FALSE(one_worker.submit_overlapped_capture(0, capture()));
}

TEST(DistOverlap, RecordsMatchASynchronouslyPackingRuntimeByteForByte) {
    fault_guard guard;
    const options o = opts(8);
    const int cycles = 10;

    // A 1-worker runtime declines the overlap: every record is packed on
    // the main thread right after its cycle, as before.
    cluster synchronous(o, 3);
    amt::runtime rt1(1);
    dist_driver drv1(rt1, {64, 64}, mode::futurized,
                     std::chrono::milliseconds(0), retry_policy{});
    const recorded_run want = run_recorded(synchronous, drv1, 1, cycles);
    ASSERT_EQ(want.rr.result.run_status, lulesh::status::ok);

    amt::runtime rt3(3);
    for (const mode m : {mode::futurized, mode::bulk_synchronous}) {
        cluster overlapped(o, 3);
        dist_driver drv3(rt3, {64, 64}, m, std::chrono::milliseconds(0),
                         retry_policy{});
        SCOPED_TRACE(drv3.name());
        const recorded_run got = run_recorded(overlapped, drv3, 1, cycles);
        ASSERT_EQ(got.rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(got.rr.checkpoints, cycles);
        for (std::size_t s = 0; s < 3; ++s) {
            // The entry base plus one record per cycle.
            ASSERT_EQ(got.records[s].size(),
                      static_cast<std::size_t>(cycles) + 1);
            ASSERT_EQ(want.records[s].size(), got.records[s].size());
            for (std::size_t r = 0; r < got.records[s].size(); ++r) {
                EXPECT_EQ(lulesh::chain_record_cycle(got.records[s][r]),
                          static_cast<int>(r));
                EXPECT_TRUE(got.records[s][r] == want.records[s][r])
                    << "slab " << s << ", record " << r;
            }
        }
        // record_hook fires once per slab per record, in slab order.
        ASSERT_EQ(got.hook_order.size(), 3u * (cycles + 1));
        for (std::size_t k = 0; k < got.hook_order.size(); ++k) {
            EXPECT_EQ(got.hook_order[k], static_cast<index_t>(k % 3)) << k;
        }
        EXPECT_EQ(got.hook_order, want.hook_order);
        EXPECT_EQ(cluster_vs_global(overlapped, serial_reference(o, cycles)),
                  0.0);
    }
}

TEST(DistOverlap, SlabKillRightAfterACheckpointRollsBackToIt) {
    // The failing cycle is the one whose tasks pack the checkpoint taken
    // just before it.  The capture is finalized before the dead slab is
    // rebuilt, so the rollback lands on that checkpoint — and the transient
    // replay is bitwise identical to a fault-free run.
    struct scenario {
        int every;
        int kill_epoch;
    };
    const options o = opts(8);
    const int cycles = 16;
    const domain global = serial_reference(o, cycles);
    for (const scenario sc : {scenario{4, 9}, scenario{1, 6}}) {
        SCOPED_TRACE("checkpoint_every " + std::to_string(sc.every) +
                     ", kill at cycle " + std::to_string(sc.kill_epoch));
        fault_guard guard;
        amt::fault::plan p;
        p.site = "slab_kill:1";
        p.epoch = sc.kill_epoch;
        p.max_injections = 1;
        amt::fault::arm(p);

        cluster c(o, 3);
        amt::runtime rt(3);
        dist_driver drv(rt, {64, 64}, mode::futurized,
                        std::chrono::milliseconds(2000), retry_policy{});
        lulesh::resilience_options ropt;
        ropt.checkpoint_every = sc.every;
        const auto rr = lulesh::dist::run_resilient(c, drv, ropt, cycles);
        amt::fault::disarm();

        EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(rr.result.cycles, cycles);
        EXPECT_EQ(rr.recoveries, 1);
        EXPECT_EQ(rr.slab_rebuilds, 1);
        EXPECT_EQ(rr.dt_halvings, 0);
        EXPECT_EQ(rr.last_rollback_cycle, sc.kill_epoch - 1);
        EXPECT_EQ(cluster_vs_global(c, global), 0.0)
            << "recovered run diverged from fault-free";
    }
}

TEST(DistOverlap, FaultedPackDropsTheWholeCheckpoint) {
    // Only overlapped packs pass the ckpt.pack fault site, so this also
    // proves the packs ran as tasks.  The pack of cycle 4's capture faults
    // during cycle 5: cycle 4 is dropped from every chain, not just the
    // faulted slab's, and the run itself is unaffected.
    fault_guard guard;
    amt::fault::plan p;
    p.site = "ckpt.pack";
    p.epoch = 5;
    p.max_injections = 1;
    amt::fault::arm(p);

    const options o = opts(8);
    const int cycles = 8;
    cluster c(o, 3);
    amt::runtime rt(3);
    dist_driver drv(rt, {64, 64}, mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    const recorded_run run = run_recorded(c, drv, 1, cycles);
    amt::fault::disarm();

    ASSERT_EQ(run.rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(run.rr.recoveries, 0);
    for (std::size_t s = 0; s < 3; ++s) {
        std::vector<int> got;
        for (const std::string& rec : run.records[s]) {
            got.push_back(lulesh::chain_record_cycle(rec));
        }
        EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 5, 6, 7, 8}))
            << "slab " << s;
    }
    EXPECT_EQ(cluster_vs_global(c, serial_reference(o, cycles)), 0.0);
}

}  // namespace
