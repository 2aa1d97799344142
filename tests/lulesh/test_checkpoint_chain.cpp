// Tests for the v3 checkpoint chain: dirty-region coalescing, whole-state
// records only, restart-from-chain bitwise identity across all four
// drivers, the entry-snapshot-only resilient mode, the two-record ring and
// its mirror, torn-tail tolerance, and the enriched checkpoint_error
// context.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "amt/fault.hpp"
#include "core/access.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/crc32c.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/resilient_run.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::dirty_region;
using lulesh::domain;
using lulesh::field;
using lulesh::index_t;
using lulesh::options;
using lulesh::resilience_options;

options small_opts() {
    options o;
    o.size = 6;
    o.num_regions = 5;
    return o;
}

struct fault_guard {
    ~fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
    }
};

std::string serialized(const domain& d) {
    std::ostringstream os;
    lulesh::save_checkpoint(d, os);
    return os.str();
}

// ---------------- dirty_tracker ----------------

TEST(DirtyTracker, CoalescesOverlappingAndAdjacentMarks) {
    const domain d(small_opts());
    lulesh::dirty_tracker t;
    EXPECT_TRUE(t.empty());
    t.mark(field::e, 10, 20);
    t.mark(field::e, 15, 30);  // overlaps -> [10, 30)
    t.mark(field::e, 30, 40);  // adjacent -> [10, 40)
    t.mark(field::e, 50, 60);  // disjoint: stays separate
    EXPECT_FALSE(t.empty());

    const auto regs = t.take(d);
    ASSERT_EQ(regs.size(), 2u);
    EXPECT_EQ(regs[0].f, field::e);
    EXPECT_EQ(regs[0].lo, 10);
    EXPECT_EQ(regs[0].hi, 40);
    EXPECT_EQ(regs[1].lo, 50);
    EXPECT_EQ(regs[1].hi, 60);
    EXPECT_TRUE(t.empty());  // take() clears
}

TEST(DirtyTracker, ClampsToExtentAndIgnoresUntrackedFields) {
    const domain d(small_opts());
    lulesh::dirty_tracker t;
    t.mark(field::x, 0, 1 << 30);  // clamped to numNode
    t.mark(field::fx, 0, 10);      // per-iteration scratch: not checkpointed
    t.mark(field::vnew, 0, 10);
    const auto regs = t.take(d);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].f, field::x);
    EXPECT_EQ(regs[0].lo, 0);
    EXPECT_EQ(regs[0].hi, d.numNode());
}

// ---------------- iteration write coverage ----------------

// driver::record_dirty marks every checkpointed field over its full
// extent.  That is exact, not conservative, because one iteration writes
// every checkpointed field in full: the write accesses of the iteration
// model, expanded index by index, cover each of the 11 fields over exactly
// [0, extent) — no index missed, none outside.  A table that stops writing
// a field in full fails here and names the field.
TEST(DirtyCoverage, IterationWritesEveryCheckpointedFieldInFull) {
    namespace graph = lulesh::graph;
    for (const index_t size : {6, 8, 12}) {
        for (const index_t regions : {1, 11}) {
            options o;
            o.size = size;
            o.num_regions = regions;
            const domain d(o);
            const std::vector<dirty_region> full = lulesh::full_coverage(d);
            ASSERT_EQ(full.size(), lulesh::num_checkpoint_fields);
            for (const index_t p : {8, 64, 512}) {
                const graph::graph_model m =
                    graph::build_iteration_model(d, {p, p});
                for (const dirty_region& r : full) {
                    std::vector<char> written(static_cast<std::size_t>(r.hi),
                                              0);
                    std::size_t outside = 0;
                    for (const graph::task_decl& t : m.tasks) {
                        for (const graph::access& a : t.accesses) {
                            if (a.f != r.f || a.m != graph::mode::write) {
                                continue;
                            }
                            graph::expand_access(a, d, [&](index_t i) {
                                if (i < r.lo || i >= r.hi) {
                                    ++outside;
                                } else {
                                    written[static_cast<std::size_t>(i)] = 1;
                                }
                            });
                        }
                    }
                    const auto covered = static_cast<index_t>(
                        std::count(written.begin(), written.end(), 1));
                    EXPECT_EQ(covered, r.hi - r.lo)
                        << lulesh::field_name(r.f) << ": s=" << size
                        << " r=" << regions << " p=" << p;
                    EXPECT_EQ(outside, 0u)
                        << lulesh::field_name(r.f) << ": s=" << size
                        << " r=" << regions << " p=" << p;
                }
            }
        }
    }
}

// ---------------- record round trips ----------------

TEST(ChainRecords, TornTailAppendIsIgnoredOnRestore) {
    const std::string path = "/tmp/lulesh_chain_torn.ckpt";
    std::remove(path.c_str());

    // A two-record file, as the ring mirror writes it.
    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 4);
    const std::string at4 = lulesh::pack_full_record(d);
    lulesh::run_simulation(d, drv, 8);
    lulesh::write_chain_file(path, {at4, lulesh::pack_full_record(d)});
    const std::string committed = serialized(d);

    // Half of a third record's bytes appended in place leave a torn tail.
    // Restore must land on the newest committed state.
    lulesh::run_simulation(d, drv, 12);
    const std::string torn = lulesh::pack_full_record(d);
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write(torn.data(),
                  static_cast<std::streamsize>(torn.size() / 2));
    }

    domain restored(small_opts());
    lulesh::load_checkpoint_file(restored, path);
    EXPECT_EQ(restored.cycle, 8);
    EXPECT_EQ(serialized(restored), committed);
    std::remove(path.c_str());
}

TEST(ChainRecords, FileWithNoCommittedBaseThrowsWithContext) {
    const std::string path = "/tmp/lulesh_chain_nobase.ckpt";
    std::remove(path.c_str());

    domain d(small_opts());
    std::string rec = lulesh::pack_full_record(d);
    rec.resize(rec.size() - 8);  // chop through the commit trailer
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(rec.data(), static_cast<std::streamsize>(rec.size()));
    }

    domain restored(small_opts());
    try {
        lulesh::load_checkpoint_file(restored, path);
        FAIL() << "expected checkpoint_error";
    } catch (const lulesh::checkpoint_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("no committed base record"), std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

TEST(ChainRecords, MeshShapeMismatchIsNamedNotMisreportedAsTorn) {
    const std::string path = "/tmp/lulesh_chain_shape.ckpt";
    std::remove(path.c_str());

    domain d(small_opts());
    lulesh::write_chain_file(path, {lulesh::pack_full_record(d)});

    // Loading into a differently-sized mesh must say "shape", not claim
    // the (perfectly committed) base record is missing.
    auto other_opts = small_opts();
    other_opts.size += 2;
    domain other(other_opts);
    try {
        lulesh::load_checkpoint_file(other, path);
        FAIL() << "expected checkpoint_error";
    } catch (const lulesh::checkpoint_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("does not match this domain's shape"),
                  std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

TEST(ChainRecords, StandaloneCheckpointFileIsOneCommittedBaseRecord) {
    // save_checkpoint_file writes the chain format the resilient loop
    // mirrors: one committed record holding the whole state.
    const std::string path = "/tmp/lulesh_chain_standalone.ckpt";
    std::remove(path.c_str());

    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 5);
    lulesh::save_checkpoint_file(d, path);

    std::ifstream in(path, std::ios::binary);
    const auto records = lulesh::read_chain_records(d, in, path);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(lulesh::chain_record_cycle(records[0]), 5);
    EXPECT_EQ(records[0], lulesh::pack_full_record(d));
    std::remove(path.c_str());
}

TEST(ChainRecords, DeltaRecordOfTheEarlierFormatFailsAndTheRestoreFallsBack) {
    // An earlier version of the format also wrote delta records (header
    // kind 1) after a base record.  Such a record fails validation like a
    // corrupt one, and the restore falls back to the record before it.
    const std::string path = "/tmp/lulesh_chain_old_delta.ckpt";
    std::remove(path.c_str());

    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 4);
    const std::string at4 = lulesh::pack_full_record(d);
    const std::string state4 = serialized(d);
    lulesh::run_simulation(d, drv, 8);
    std::string delta = lulesh::pack_full_record(d);
    // Re-stamp the header as a delta: kind at byte 12, the header CRC at
    // byte 20 (computed with itself zeroed) and its echo in the trailer.
    constexpr std::size_t header_bytes = 80;
    const std::uint32_t delta_kind = 1;
    std::uint32_t crc = 0;
    std::memcpy(delta.data() + 12, &delta_kind, sizeof(delta_kind));
    std::memcpy(delta.data() + 20, &crc, sizeof(crc));
    crc = lulesh::crc32c_of(delta.data(), header_bytes);
    std::memcpy(delta.data() + 20, &crc, sizeof(crc));
    std::memcpy(delta.data() + delta.size() - 8, &crc, sizeof(crc));
    lulesh::write_chain_file(path, {at4, delta});

    domain probe(small_opts());
    try {
        lulesh::apply_chain_record(probe, delta, path);
        FAIL() << "expected checkpoint_error";
    } catch (const lulesh::checkpoint_error& e) {
        EXPECT_NE(std::string(e.what()).find("not a whole state"),
                  std::string::npos)
            << e.what();
    }
    domain restored(small_opts());
    lulesh::load_checkpoint_file(restored, path);
    EXPECT_EQ(restored.cycle, 4);
    EXPECT_EQ(serialized(restored), state4);
    std::remove(path.c_str());
}

TEST(CheckpointErrors, CorruptFileReportsPathCycleAndBothCrcs) {
    const std::string path = "/tmp/lulesh_ckpt_errctx.ckpt";
    std::remove(path.c_str());

    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 3);
    lulesh::save_checkpoint_file(d, path);
    {
        // Flip one payload byte (the payload is everything after the fixed
        // header, so the last byte is always payload).
        std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(-1, std::ios::end);
        char b = 0;
        f.get(b);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(b ^ 0x10));
    }

    domain restored(small_opts());
    try {
        lulesh::load_checkpoint_file(restored, path);
        FAIL() << "expected checkpoint_error";
    } catch (const lulesh::checkpoint_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("cycle 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("expected 0x"), std::string::npos) << msg;
        EXPECT_NE(msg.find("actual 0x"), std::string::npos) << msg;
    }
    std::remove(path.c_str());
}

// ---------------- record ring ----------------

TEST(RecordRing, KeepsTwoRecordsAndDropsWhatARestoreAbandons) {
    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::record_ring ring;
    std::vector<std::string> states;  // the state at cycles 1, 2 and 3
    for (int cycle = 1; cycle <= 3; ++cycle) {
        lulesh::run_simulation(d, drv, cycle);
        ring.commit(cycle, lulesh::pack_full_record(d));
        states.push_back(serialized(d));
    }
    // The third commit retired cycle 1's buffer for the next capture.
    EXPECT_EQ(ring.cycles(), (std::vector<int>{2, 3}));
    EXPECT_FALSE(ring.take_spare().empty());

    // Restoring the fallback drops the newer record: it belongs to the
    // future the rollback abandons.
    ring.restore(d, 2, "ring");
    EXPECT_EQ(serialized(d), states[1]);
    EXPECT_EQ(ring.cycles(), (std::vector<int>{2}));

    // A record that fails validation is dropped, and the domain is left
    // untouched; so is a restore of a cycle the ring does not hold.
    std::string bad = lulesh::pack_full_record(d);
    bad[bad.size() / 2] ^= 0x01;
    ring.commit(4, std::move(bad));
    EXPECT_THROW(ring.restore(d, 4, "ring"), lulesh::checkpoint_error);
    EXPECT_EQ(ring.cycles(), (std::vector<int>{2}));
    EXPECT_THROW(ring.restore(d, 3, "ring"), lulesh::checkpoint_error);
    EXPECT_EQ(serialized(d), states[1]);
}

// ---------------- restart-from-chain, all four drivers ----------------

void chain_restart_roundtrip(lulesh::driver& drv, const std::string& tag) {
    const std::string path = "/tmp/lulesh_chain_restart_" + tag + ".ckpt";
    std::remove(path.c_str());

    domain plain(small_opts());
    lulesh::run_simulation(plain, drv, 24);

    domain res(small_opts());
    resilience_options opt;
    opt.checkpoint_every = 4;
    opt.checkpoint_path = path;
    const auto rr = lulesh::run_resilient(res, drv, opt, 12);
    ASSERT_EQ(rr.result.run_status, lulesh::status::ok);

    // The mirror holds the ring's two records; restoring it and resuming
    // with the plain loop must be bitwise identical to never stopping.
    domain resumed(small_opts());
    lulesh::load_checkpoint_file(resumed, path);
    EXPECT_EQ(resumed.cycle, 12);
    lulesh::run_simulation(resumed, drv, 24);
    EXPECT_EQ(lulesh::max_field_difference(plain, resumed), 0.0);
    EXPECT_EQ(serialized(resumed), serialized(plain));
    std::remove(path.c_str());
}

TEST(ChainRestart, SerialDriverIsBitwise) {
    lulesh::serial_driver drv;
    chain_restart_roundtrip(drv, "serial");
}

TEST(ChainRestart, ParallelForDriverIsBitwise) {
    ompsim::team team(2);
    lulesh::parallel_for_driver drv(team);
    chain_restart_roundtrip(drv, "parallel_for");
}

TEST(ChainRestart, ForeachDriverIsBitwise) {
    amt::runtime rt(2);
    lulesh::foreach_driver drv(rt);
    chain_restart_roundtrip(drv, "foreach");
}

TEST(ChainRestart, TaskGraphDriverIsBitwise) {
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {256, 256});
    chain_restart_roundtrip(drv, "taskgraph");
}

// ---------------- resilient-loop modes ----------------

TEST(ResilientChain, EntrySnapshotOnlyModeRecoversFromStart) {
    fault_guard guard;
    domain plain(small_opts());
    lulesh::serial_driver d0;
    lulesh::run_simulation(plain, d0, 12);

    amt::fault::plan p;
    p.site = "advance";
    p.epoch = 6;
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 0;  // documented: entry-snapshot-only mode
    const auto rr = lulesh::run_resilient(res, drv, opt, 12);
    amt::fault::disarm();

    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.recoveries, 1);
    EXPECT_EQ(rr.last_rollback_cycle, 0);
    EXPECT_EQ(rr.checkpoints, 0);  // only the (uncounted) entry snapshot
    EXPECT_EQ(rr.dt_halvings, 0);
    EXPECT_EQ(lulesh::max_field_difference(plain, res), 0.0);
    EXPECT_EQ(serialized(res), serialized(plain));
}

TEST(ResilientChain, PeriodicRebaseKeepsTheMirrorLoadable) {
    // Every record is a whole state, and every commit rewrites the mirror
    // with the ring's two records: the newest and the fallback.
    const std::string path = "/tmp/lulesh_chain_rebase.ckpt";
    std::remove(path.c_str());

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 1;
    opt.checkpoint_path = path;
    std::vector<std::string> committed;
    opt.record_hook = [&committed](index_t, std::string& rec) {
        committed.push_back(rec);
    };
    const auto rr = lulesh::run_resilient(res, drv, opt, 10);
    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.checkpoints, 10);
    ASSERT_EQ(committed.size(), 11u);  // the entry record plus one per cycle

    std::ifstream in(path, std::ios::binary);
    const auto records = lulesh::read_chain_records(res, in, path);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], committed[9]);
    EXPECT_EQ(records[1], committed[10]);
    EXPECT_EQ(lulesh::chain_record_cycle(records[0]), 9);
    EXPECT_EQ(lulesh::chain_record_cycle(records[1]), 10);

    domain restored(small_opts());
    lulesh::load_checkpoint_file(restored, path);
    EXPECT_EQ(restored.cycle, 10);
    EXPECT_EQ(serialized(restored), serialized(res));
    std::remove(path.c_str());
}

/// XORs one byte of `path` at `offset`.
void flip_byte(const std::string& path, std::streamoff offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good()) << path;
    char b = 0;
    f.seekg(offset);
    f.get(b);
    f.seekp(offset);
    f.put(static_cast<char>(b ^ 0x10));
}

TEST(ResilientChain, MirrorRestoreStartsFromItsNewestRecord) {
    // A restore starts from the mirror's newest record and falls back to
    // the older one only if the newest fails: a corrupt fallback must not
    // keep an intact newest record from loading.
    const std::string path = "/tmp/lulesh_chain_newest_first.ckpt";
    std::remove(path.c_str());

    domain res(small_opts());
    lulesh::serial_driver drv;
    resilience_options opt;
    opt.checkpoint_every = 1;
    opt.checkpoint_path = path;
    const auto rr = lulesh::run_resilient(res, drv, opt, 10);
    ASSERT_EQ(rr.result.run_status, lulesh::status::ok);

    std::vector<std::string> records;
    {
        std::ifstream in(path, std::ios::binary);
        records = lulesh::read_chain_records(res, in, path);
    }
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(lulesh::chain_record_cycle(records[0]), 9);
    const std::string intact = serialized(res);
    domain at9(small_opts());
    lulesh::apply_chain_record(at9, records[0], path);

    // Flip a payload byte in the middle of the cycle-9 record.
    const auto first = static_cast<std::streamoff>(records[0].size());
    flip_byte(path, first / 2);
    {
        std::ifstream in(path, std::ios::binary);
        const auto flipped = lulesh::read_chain_records(res, in, path);
        ASSERT_EQ(flipped.size(), 2u);
        domain probe(small_opts());
        EXPECT_THROW(lulesh::apply_chain_record(probe, flipped[0], path),
                     lulesh::checkpoint_error);
    }
    domain restored(small_opts());
    lulesh::load_checkpoint_file(restored, path);
    EXPECT_EQ(restored.cycle, 10);
    EXPECT_EQ(serialized(restored), intact);

    // Mend the fallback and corrupt the newest record instead: the restore
    // falls back to cycle 9.
    flip_byte(path, first / 2);
    flip_byte(path, first + static_cast<std::streamoff>(records[1].size()) / 2);
    domain fallback(small_opts());
    lulesh::load_checkpoint_file(fallback, path);
    EXPECT_EQ(fallback.cycle, 9);
    EXPECT_EQ(serialized(fallback), serialized(at9));
    std::remove(path.c_str());
}

TEST(ResilientChain, EveryCycleCheckpointingCyclesThroughThreeRecordBuffers) {
    // The ring holds two records and hands the retired third buffer to the
    // next capture, so the hook sees the same three buffers over and over
    // instead of a fresh allocation per checkpoint.
    domain res(small_opts());
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {256, 256});
    resilience_options opt;
    opt.checkpoint_every = 1;
    int commits = 0;
    std::set<const char*> buffers;
    opt.record_hook = [&](index_t, std::string& rec) {
        ++commits;
        buffers.insert(rec.data());
    };
    const auto rr = lulesh::run_resilient(res, drv, opt, 12);
    EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
    EXPECT_EQ(rr.checkpoints, 12);
    EXPECT_EQ(commits, 13);
    EXPECT_LE(buffers.size(), 3u);
}

TEST(ResilientChain, OverlappedPackingSurvivesAFaultedPackTask) {
    fault_guard guard;
    domain plain(small_opts());
    {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {256, 256});
        lulesh::run_simulation(plain, drv, 20);
    }

    // Kill one checkpoint pack task.  The iteration must still succeed
    // (packing is off the failure path); the capture is dropped, the ring
    // keeps the records it already held, and the run stays bitwise
    // correct.
    amt::fault::plan p;
    p.site = "ckpt.pack";
    p.epoch = 9;  // packs of the cycle-8 capture run inside cycle 9
    p.max_injections = 1;
    amt::fault::arm(p);

    domain res(small_opts());
    {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {256, 256});
        resilience_options opt;
        opt.checkpoint_every = 4;
        const auto rr = lulesh::run_resilient(res, drv, opt, 20);
        EXPECT_EQ(rr.result.run_status, lulesh::status::ok);
        EXPECT_EQ(rr.recoveries, 0);
    }
    amt::fault::disarm();

    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
    EXPECT_EQ(lulesh::max_field_difference(plain, res), 0.0);
    EXPECT_EQ(serialized(res), serialized(plain));
}

}  // namespace
