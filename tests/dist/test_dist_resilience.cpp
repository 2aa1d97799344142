// Fail-soft distributed runs: channel-level halo retry with backoff, the
// per-slab failure detector, and coordinated rollback (dist/resilient_dist).
//
// The central claims under test:
//   * a transiently corrupted or dropped halo message is healed by the
//     retransmit cache without failing the run — and recovery is *bitwise*
//     (the resent payload is the pristine pack output);
//   * a killed slab is detected, rebuilt, rolled back with its peers to a
//     consistent cycle, and replayed bitwise identical to fault-free;
//   * exhausted budgets degrade to the fail-stop path's established status
//     codes instead of hanging;
//   * recovery is observable: tracer spans/marks and amt::resilience()
//     counters record every retry, resend, and rollback.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "amt/counters.hpp"
#include "amt/fault.hpp"
#include "amt/trace.hpp"
#include "dist/checkpoint_dist.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "dist/resilient_dist.hpp"
#include "dist/retry_policy.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/validate.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
using lulesh::resilience_options;
using lulesh::dist::cluster;
using lulesh::dist::dist_driver;
using lulesh::dist::plane_buffer;
using lulesh::dist::retry_policy;

options opts(index_t size) {
    options o;
    o.size = size;
    o.num_regions = 11;
    return o;
}

/// Disarms injection and clears fault + resilience-counter state on both
/// entry and exit, so tests stay independent in either run order.
struct fault_guard {
    fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
        amt::resilience().reset();
    }
    ~fault_guard() {
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

// ---------------- channel-level retry ----------------

TEST(DistRetry, CorruptHaloMessageIsRetriedAndRunStaysBitwise) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 20;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    // Corrupt the corner_up message of boundary 0 once, at cycle 5.  The
    // receiver's CRC check fails, the retry chain requests a resend of the
    // pristine cached copy, and the iteration completes as if nothing
    // happened.
    amt::fault::plan p;
    p.site = "halo_corrupt:corner_up:0";
    p.epoch = 5;
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    const auto result = lulesh::dist::run_simulation(c, drv, iters);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, iters);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0)
        << "recovered run diverged from fault-free";
    EXPECT_EQ(amt::resilience().halo_crc_failures.load(), 1u);
    EXPECT_GE(amt::resilience().halo_retries.load(), 1u);
    EXPECT_GE(amt::resilience().halo_resends.load(), 1u);
}

TEST(DistRetry, DroppedHaloMessageIsResentFromTheCache) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 20;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    amt::fault::plan p;
    p.site = "halo_drop:delv_up:0";
    p.epoch = 4;
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    const auto result = lulesh::dist::run_simulation(c, drv, iters);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, iters);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0);
    EXPECT_EQ(amt::resilience().halo_drops.load(), 1u);
    EXPECT_GE(amt::resilience().halo_resends.load(), 1u);
}

TEST(DistRetry, PersistentCorruptionExhaustsRetriesAndKeepsExitCode) {
    fault_guard guard;
    // Unbounded corruption of one stream: the retry budget (3 attempts) is
    // spent and the failure escalates with the same data_corruption status
    // (exit code 7) the fail-stop path reports — degradation, not a hang
    // and not a new failure mode.
    amt::fault::plan p;
    p.site = "halo_corrupt:delv_up:0";
    p.max_injections = -1;
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    const auto result = lulesh::dist::run_simulation(c, drv, 10);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::data_corruption);
    EXPECT_EQ(lulesh::exit_code_for(result.run_status), 7);
    EXPECT_GE(amt::resilience().halo_retries.load(), 3u);
    EXPECT_EQ(drv.last_failure().code, lulesh::status::data_corruption);
}

TEST(DistRetry, PersistentDropTripsTheProgressDeadlineNotAHang) {
    fault_guard guard;
    // Every delivery (original + resends) of one stream is dropped.  Once
    // the resend budget is exhausted the receiver can never be fed, so the
    // armed wait loop's deadline fails the fabric with status::stalled —
    // the same code the fail-stop timeout path uses.
    amt::fault::plan p;
    p.site = "halo_drop:corner_up:0";
    p.max_injections = -1;
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(200), retry_policy{});
    const auto result = lulesh::dist::run_simulation(c, drv, 10);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::stalled);
    EXPECT_EQ(lulesh::exit_code_for(result.run_status), 5);
    EXPECT_GE(amt::resilience().halo_drops.load(), 1u);
}

TEST(DistRetry, RetryDisabledPreservesFailStopBehaviour) {
    fault_guard guard;
    // Without a retry policy a corrupt delivery escalates immediately, as
    // before this layer existed.
    amt::fault::plan p;
    p.site = "halo_corrupt:corner_up:0";
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized);
    const auto result = lulesh::dist::run_simulation(c, drv, 10);
    amt::fault::disarm();

    EXPECT_EQ(result.run_status, lulesh::status::data_corruption);
    EXPECT_EQ(amt::resilience().halo_resends.load(), 0u);
}

TEST(DistRetry, ResendRacingTheOriginalSendDeliversOnce) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 10;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    // Hold one message in transit on both paths at cycle 5: the original
    // send is delayed after it filled the retransmit cache, so the wait
    // loop resends the cached copy, and that resend is delayed in turn
    // until the original has gone out.  Only one of the two may be
    // delivered — a second copy would stay queued and feed cycle 6 the
    // ghost plane of cycle 5, CRC-valid and silently wrong.  Four slabs put
    // boundary 0 at plane 2, which the blast reaches by cycle 5, so a stale
    // plane there changes the answer.
    amt::fault::plan p;
    p.kind = amt::fault::action::delay;
    p.site = "halo_drop:corner_up:0";
    p.epoch = 5;
    p.max_injections = 2;
    p.delay = std::chrono::milliseconds(30);
    amt::fault::arm(p);

    cluster c(o, 4);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    const auto result = lulesh::dist::run_simulation(c, drv, iters);
    const auto injected = amt::fault::snapshot().injections;
    amt::fault::disarm();

    ASSERT_EQ(injected, 2u) << "the resend never raced the original send";
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_EQ(result.cycles, iters);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0)
        << "a duplicate delivery fed a later cycle a stale ghost plane";
}

// ---------------- coordinated rollback (run_resilient) ----------------

TEST(DistResilient, SlabKillRecoversBitwiseIdenticalToFaultFree) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 20;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    // Kill slab 1 at cycle 10: its liveness task throws, the driver
    // attributes the failure, the recovery layer rebuilds the slab's
    // domain, re-wires the channels, rolls every slab back to the cycle-8
    // checkpoint, and replays at the unchanged dt — bitwise.
    amt::fault::plan p;
    p.site = "slab_kill:1";
    p.epoch = 10;
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(2000), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 4;
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, iters);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.result.cycles, iters);
    EXPECT_EQ(rr.recoveries, 1);
    EXPECT_EQ(rr.slab_rebuilds, 1);
    EXPECT_EQ(rr.dt_halvings, 0) << "transient replay must keep dt unchanged";
    EXPECT_EQ(rr.last_rollback_cycle, 8);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0)
        << "recovered run diverged from fault-free";
    EXPECT_GE(amt::resilience().recoveries.load(), 1u);
}

TEST(DistResilient, RecoveryIsVisibleAsTracerSpansAndMarks) {
    fault_guard guard;
    amt::trace::reset();
    amt::trace::arm();

    amt::fault::plan p;
    p.site = "slab_kill:0";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);
    {
        cluster c(opts(6), 2);
        amt::runtime rt(2);
        dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                        std::chrono::milliseconds(2000), retry_policy{});
        resilience_options ropt;
        ropt.checkpoint_every = 3;
        const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 12);
        EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(rr.recoveries, 1);
    }
    amt::fault::disarm();
    amt::trace::disarm();

    const auto snap = amt::trace::drain();
    bool saw_recovery = false;
    bool saw_rebuild = false;
    for (const auto& t : snap.threads) {
        for (const auto& ev : t.events) {
            if (ev.name == nullptr) continue;
            const std::string name = ev.name;
            saw_recovery = saw_recovery || name == "recovery";
            saw_rebuild = saw_rebuild || name == "dist:slab_rebuild";
        }
    }
    amt::trace::reset();
    EXPECT_TRUE(saw_recovery) << "no recovery span in the trace";
    EXPECT_TRUE(saw_rebuild) << "no dist:slab_rebuild mark in the trace";
}

TEST(DistResilient, RecoveriesExhaustedDegradeToTaskFaultExitCode) {
    fault_guard guard;
    // The same cycle faults on every replay (unbounded budget, pinned
    // epoch): the recovery budget is spent and the run ends with the
    // fail-stop task_fault status / exit code 4 — never a hang.
    amt::fault::plan p;
    p.site = "slab_kill:0";
    p.epoch = 5;
    p.max_injections = -1;
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(2000), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 2;
    ropt.max_recoveries = 2;
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 12);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::task_fault);
    EXPECT_EQ(lulesh::exit_code_for(rr.result.run_status), 4);
    EXPECT_EQ(rr.recoveries, 2);
    EXPECT_FALSE(rr.result.error_message.empty());
    // The cluster is left at the last committed rollback state, not at the
    // torn mid-iteration state of the failed cycle.
    EXPECT_EQ(c.cycle(), rr.last_rollback_cycle);
}

TEST(DistResilient, StalledSlabIsSuspectedRebuiltAndTheRunCompletes) {
    fault_guard guard;
    // A slab wedges (simulated hung worker) instead of throwing.  The
    // failure detector's heartbeat staleness names a suspect once the
    // progress deadline fires; the recovery layer rebuilds it and replays.
    // A stall is not classified transient, so the replay halves dt — the
    // run completes, without the bitwise guarantee of the transient paths.
    amt::fault::plan p;
    p.kind = amt::fault::action::stall;
    p.site = "slab_kill:1";
    p.epoch = 6;
    p.max_injections = 1;
    p.stall_timeout = std::chrono::seconds(60);
    amt::fault::arm(p);

    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(150), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 3;
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 12);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.result.cycles, 12);
    EXPECT_EQ(rr.recoveries, 1);
    EXPECT_EQ(rr.slab_rebuilds, 1);
    EXPECT_GE(amt::resilience().slab_deaths.load(), 1u);
}

TEST(DistResilient, CorruptChainsFallBackToTheEntrySnapshot) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 16;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    amt::fault::plan p;
    p.site = "slab_kill:1";
    p.epoch = 9;
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(2000), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 4;
    // Corrupt every record of slab 0's chain (including its copy of the
    // entry base).  Rollback finds the whole chain unusable and restores
    // every slab from the pristine pre-hook entry snapshot, then replays
    // the run from cycle 0 — bitwise, since the fault budget is spent.
    ropt.record_hook = [](index_t slab, std::string& rec) {
        if (slab == 0) rec[rec.size() / 2] ^= 0x01;
    };
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, iters);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.result.cycles, iters);
    EXPECT_EQ(rr.recoveries, 1);
    EXPECT_EQ(rr.entry_fallbacks, 1);
    EXPECT_EQ(rr.last_rollback_cycle, 0);
    EXPECT_EQ(cluster_vs_global(c, global), 0.0);
}

TEST(DistResilient, OneSlabsCorruptNewestRecordSendsEverySlabToTheFallback) {
    fault_guard guard;
    const options o = opts(8);
    const int iters = 16;
    domain global(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(global, drv, iters);
    }

    // Kill slab 1 at cycle 10.  The cycle-8 records are committed just
    // before the rollback, and slab 1's is corrupt: cycle 8 is ruled out
    // for everyone, so every slab restores its cycle-4 fallback — not the
    // entry snapshot — and the replay is still bitwise.
    amt::fault::plan p;
    p.site = "slab_kill:1";
    p.epoch = 10;
    p.max_injections = 1;
    amt::fault::arm(p);

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {64, 64}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(2000), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 4;
    bool corrupted = false;
    std::vector<std::vector<int>> committed(2);
    ropt.record_hook = [&](index_t slab, std::string& rec) {
        const int cycle = lulesh::chain_record_cycle(rec);
        committed[static_cast<std::size_t>(slab)].push_back(cycle);
        if (slab == 1 && cycle == 8 && !corrupted) {
            rec[rec.size() / 2] ^= 0x01;
            corrupted = true;
        }
    };
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, iters);
    amt::fault::disarm();

    ASSERT_TRUE(corrupted);
    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.result.cycles, iters);
    EXPECT_EQ(rr.recoveries, 1);
    EXPECT_EQ(rr.entry_fallbacks, 0);
    EXPECT_EQ(rr.dt_halvings, 0);
    EXPECT_EQ(rr.last_rollback_cycle, 4);
    // Both slabs replayed from cycle 4 in lockstep: each re-captured cycle
    // 8 at the same loop cycle.
    for (const std::vector<int>& cycles : committed) {
        EXPECT_EQ(cycles, (std::vector<int>{0, 4, 8, 8, 12, 16}));
    }
    EXPECT_EQ(cluster_vs_global(c, global), 0.0)
        << "recovered run diverged from fault-free";
}

TEST(DistResilient, EveryCycleCheckpointingCyclesThroughThreeBuffersPerSlab) {
    // Each slab's ring holds two records and hands the retired third
    // buffer to the next capture, so the hook sees the same three buffers
    // per slab instead of a fresh allocation per checkpoint.
    fault_guard guard;
    cluster c(opts(6), 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 1;
    std::vector<int> commits(2, 0);
    std::vector<std::set<const char*>> buffers(2);
    ropt.record_hook = [&](index_t slab, std::string& rec) {
        const auto s = static_cast<std::size_t>(slab);
        ++commits[s];
        buffers[s].insert(rec.data());
    };
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 12);
    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.checkpoints, 12);
    for (std::size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(commits[s], 13) << "slab " << s;
        EXPECT_LE(buffers[s].size(), 3u) << "slab " << s;
    }
}

TEST(DistResilient, MirroredChainsSurviveForAProcessRestart) {
    fault_guard guard;
    const options o = opts(6);
    const std::string path = "/tmp/lulesh_dist_resilient_mirror.ckpt";
    for (index_t s = 0; s < 2; ++s) {
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 5;
    ropt.checkpoint_path = path;
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 15);
    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.checkpoints, 3);

    cluster restarted(o, 2);
    lulesh::dist::load_cluster_chains(restarted, path);
    EXPECT_EQ(restarted.cycle(), 15);
    for (index_t s = 0; s < 2; ++s) {
        EXPECT_EQ(lulesh::max_field_difference(c.slab(s), restarted.slab(s)),
                  0.0)
            << "slab " << s;
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }
}

// ---------------- consistent-cycle rule (on-disk loader) ----------------

/// Runs a fresh `slabs`-slab cluster to cycle 10 and on to 15, and writes
/// each slab's file with its cycle-10 and cycle-15 records, as the ring
/// mirror does.  Returns the cluster at cycle 10.
std::unique_ptr<cluster> write_two_record_files(const options& o,
                                                index_t slabs,
                                                amt::runtime& rt,
                                                const std::string& path) {
    auto at10 = std::make_unique<cluster>(o, slabs);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(*at10, drv, 10);
    }
    cluster run(o, slabs);
    dist_driver drv(rt, {48, 48});
    lulesh::dist::run_simulation(run, drv, 10);
    std::vector<std::string> older;
    for (index_t s = 0; s < slabs; ++s) {
        older.push_back(lulesh::pack_full_record(run.slab(s)));
    }
    lulesh::dist::run_simulation(run, drv, 15);
    for (index_t s = 0; s < slabs; ++s) {
        lulesh::write_chain_file(lulesh::dist::slab_chain_path(path, s),
                                 {older[static_cast<std::size_t>(s)],
                                  lulesh::pack_full_record(run.slab(s))});
    }
    return at10;
}

TEST(DistConsistentCycle, TornTailInOneSlabLowersEveryonesTarget) {
    const options o = opts(6);
    amt::runtime rt(2);
    const std::string path = "/tmp/lulesh_dist_consistent.ckpt";
    const auto at10 = write_two_record_files(o, 3, rt, path);

    // Tear slab 1's cycle-15 record: truncate its file mid-record.  Slabs 0
    // and 2 still hold committed cycle-15 records — but the cluster must
    // not restore a mix.
    const std::string victim = lulesh::dist::slab_chain_path(path, 1);
    std::string bytes;
    {
        std::ifstream in(victim, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    ASSERT_GT(bytes.size(), 64u);
    bytes.resize(bytes.size() - 64);
    {
        std::ofstream out(victim, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    cluster loaded(o, 3);
    lulesh::dist::load_cluster_chains(loaded, path);
    for (index_t s = 0; s < 3; ++s) {
        EXPECT_EQ(loaded.slab(s).cycle, 10)
            << "slab " << s << " restored past the consistent cycle";
        EXPECT_EQ(lulesh::max_field_difference(loaded.slab(s), at10->slab(s)),
                  0.0)
            << "slab " << s;
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }
}

TEST(DistConsistentCycle, CommittedButCorruptNewestRecordAlsoLowersTheTarget) {
    const options o = opts(6);
    amt::runtime rt(2);
    const std::string path = "/tmp/lulesh_dist_corrupt_newest.ckpt";
    const auto at10 = write_two_record_files(o, 2, rt, path);

    // Flip one payload byte inside slab 0's committed cycle-15 record.
    // The record still frames; full validation fails before it mutates
    // anything, so the loader drops it and lands every slab on cycle 10.
    const std::string victim = lulesh::dist::slab_chain_path(path, 0);
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto full = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(full, 256);
    char b = 0;
    f.seekg(full - 256);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(full - 256);
    f.write(&b, 1);
    f.close();

    cluster loaded(o, 2);
    lulesh::dist::load_cluster_chains(loaded, path);
    for (index_t s = 0; s < 2; ++s) {
        EXPECT_EQ(loaded.slab(s).cycle, 10) << "slab " << s;
        EXPECT_EQ(lulesh::max_field_difference(loaded.slab(s), at10->slab(s)),
                  0.0)
            << "slab " << s;
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }
}

TEST(DistConsistentCycle, CorruptFallbackRecordDoesNotBlockTheNewest) {
    // Each slab starts from its newest record at or before the target and
    // falls back only if that record fails: a corrupt cycle-9 fallback in
    // one slab's mirror must not keep every slab's intact cycle-10 record
    // from loading.
    fault_guard guard;
    const options o = opts(6);
    const std::string path = "/tmp/lulesh_dist_newest_first.ckpt";
    for (index_t s = 0; s < 2; ++s) {
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }

    cluster c(o, 2);
    amt::runtime rt(2);
    dist_driver drv(rt, {48, 48}, dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), retry_policy{});
    resilience_options ropt;
    ropt.checkpoint_every = 1;
    ropt.checkpoint_path = path;
    const auto rr = lulesh::dist::run_resilient(c, drv, ropt, 10);
    ASSERT_EQ(rr.result.run_status, lulesh::status::ok);

    const std::string victim = lulesh::dist::slab_chain_path(path, 0);
    std::vector<std::string> records;
    {
        std::ifstream in(victim, std::ios::binary);
        records = lulesh::read_chain_records(c.slab(0), in, victim);
    }
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(lulesh::chain_record_cycle(records[0]), 9);
    {
        // Flip a payload byte in the middle of the cycle-9 record.
        const auto at = static_cast<std::streamoff>(records[0].size() / 2);
        std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(f.good());
        char b = 0;
        f.seekg(at);
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x01);
        f.seekp(at);
        f.write(&b, 1);
    }

    cluster loaded(o, 2);
    lulesh::dist::load_cluster_chains(loaded, path);
    EXPECT_EQ(loaded.cycle(), 10);
    for (index_t s = 0; s < 2; ++s) {
        EXPECT_EQ(loaded.slab(s).cycle, 10) << "slab " << s;
        EXPECT_EQ(lulesh::max_field_difference(c.slab(s), loaded.slab(s)),
                  0.0)
            << "slab " << s;
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
    }
}

TEST(DistConsistentCycle, SlabWithNoRecordAtTheTargetIsNamed) {
    // Slab 0's file holds cycle 5 and slab 1's only cycle 10, so slab 1
    // holds no record of the target cycle 5: the loader must say so rather
    // than leave slab 1 unrestored.
    const options o = opts(6);
    amt::runtime rt(2);
    const std::string path = "/tmp/lulesh_dist_no_target.ckpt";
    const std::string later = "/tmp/lulesh_dist_no_target_later.ckpt";
    cluster run(o, 2);
    {
        dist_driver drv(rt, {48, 48});
        lulesh::dist::run_simulation(run, drv, 5);
        lulesh::dist::save_cluster_chains(run, path);
        lulesh::dist::run_simulation(run, drv, 10);
        lulesh::dist::save_cluster_chains(run, later);
    }
    const std::string victim = lulesh::dist::slab_chain_path(path, 1);
    ASSERT_EQ(std::rename(lulesh::dist::slab_chain_path(later, 1).c_str(),
                          victim.c_str()),
              0);

    cluster loaded(o, 2);
    try {
        lulesh::dist::load_cluster_chains(loaded, path);
        FAIL() << "expected checkpoint_error";
    } catch (const lulesh::checkpoint_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(victim), std::string::npos) << msg;
        EXPECT_NE(msg.find("cycle 5"), std::string::npos) << msg;
    }
    for (index_t s = 0; s < 2; ++s) {
        std::remove(lulesh::dist::slab_chain_path(path, s).c_str());
        std::remove(lulesh::dist::slab_chain_path(later, s).c_str());
    }
}

// ---------------- fabric re-wiring primitives ----------------

TEST(DistFabric, ReopenedChannelsCarryMessagesAgain) {
    cluster c(opts(4), 2);
    c.close_channels();
    EXPECT_THROW(c.boundary(0).corner_up.set(plane_buffer{}),
                 amt::channel_closed);
    c.reopen_channels();
    plane_buffer buf(3, 1.5);
    c.boundary(0).corner_up.set(std::move(buf));
    auto fut = c.boundary(0).corner_up.get();
    EXPECT_EQ(fut.get().size(), 3u);
}

TEST(DistFabric, RebuildSlabPreservesExtentAndResetsState) {
    const options o = opts(6);
    cluster c(o, 3);
    const auto extent = c.slab(1).slab();
    c.slab(1).e[0] = -999.0;  // poison, as a died slab's memory would be
    c.rebuild_slab(1);
    EXPECT_EQ(c.slab(1).slab().plane_begin, extent.plane_begin);
    EXPECT_EQ(c.slab(1).slab().plane_end, extent.plane_end);
    EXPECT_EQ(c.slab(1).cycle, 0);
    EXPECT_NE(c.slab(1).e[0], -999.0);
}

}  // namespace
