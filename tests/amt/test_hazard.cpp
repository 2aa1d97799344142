// tests/amt/test_hazard.cpp — the shadow-epoch race tracker: access-set
// normalization, deliberate in-flight conflicts, and the disarmed fast path
// staying inert.

#include "amt/hazard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "amt/scheduler.hpp"

namespace hz = amt::hazard;

namespace {

/// Arms the tracker and binds a small two-field arena for the duration of
/// one test; restores the disarmed, clean global state afterwards so tests
/// cannot leak violations or stamps into each other.
class HazardTracker : public ::testing::Test {
protected:
    static constexpr int field_a = 0;
    static constexpr int field_b = 1;

    void SetUp() override {
        hz::clear_violations();
        hz::arm();
        hz::bind_arena(arena_key(), {64, 64});
    }

    void TearDown() override {
        hz::release_arena(arena_key());
        hz::disarm();
        hz::clear_violations();
    }

    const void* arena_key() const { return this; }

    static hz::access_set make_set(int field, bool write, std::int64_t lo,
                                   std::int64_t hi) {
        hz::access_set s;
        s.add(field, write, lo, hi);
        s.normalize();
        return s;
    }
};

TEST(HazardAccessSet, NormalizeMergesOverlappingAndAdjacent) {
    hz::access_set s;
    s.add(0, true, 10, 20);
    s.add(0, true, 15, 30);   // overlaps
    s.add(0, true, 30, 40);   // adjacent
    s.add(0, false, 0, 5);    // different mode: kept separate
    s.add(1, true, 10, 20);   // different field: kept separate
    s.add(0, true, 7, 7);     // empty: dropped
    s.normalize();
    ASSERT_EQ(s.intervals.size(), 3u);
    const auto is = [](const hz::access_set::interval& iv, int field,
                       bool write, std::int64_t lo, std::int64_t hi) {
        return iv.field == field && iv.write == write && iv.lo == lo &&
               iv.hi == hi;
    };
    EXPECT_TRUE(is(s.intervals[0], 0, false, 0, 5));
    EXPECT_TRUE(is(s.intervals[1], 0, true, 10, 40));
    EXPECT_TRUE(is(s.intervals[2], 1, true, 10, 20));
}

TEST_F(HazardTracker, DisjointLiveScopesAreClean) {
    const auto a = make_set(field_a, true, 0, 32);
    const auto b = make_set(field_a, true, 32, 64);
    hz::task_scope sa(arena_key(), "task.a", 0, &a);
    hz::task_scope sb(arena_key(), "task.b", 1, &b);
    EXPECT_EQ(hz::violation_count(), 0u);
}

TEST_F(HazardTracker, OverlappingLiveWritersAreAWriteWriteConflict) {
    const auto a = make_set(field_a, true, 0, 40);
    const auto b = make_set(field_a, true, 24, 64);
    hz::task_scope sa(arena_key(), "task.a", 0, &a);
    hz::task_scope sb(arena_key(), "task.b", 1, &b);

    const auto vs = hz::take_violations();
    ASSERT_EQ(vs.size(), 1u);  // contiguous run coalesces to one record
    EXPECT_EQ(vs[0].k, hz::violation::kind::conflict_ww);
    EXPECT_EQ(vs[0].field, field_a);
    EXPECT_EQ(vs[0].lo, 24);
    EXPECT_EQ(vs[0].hi, 40);
    EXPECT_STREQ(vs[0].site, "task.b");        // the scope that stamped second
    EXPECT_EQ(vs[0].partition, 1);
    EXPECT_STREQ(vs[0].other_site, "task.a");  // attributed to the live owner
    EXPECT_EQ(vs[0].other_partition, 0);
}

TEST_F(HazardTracker, WriterOverLiveReaderIsAReadWriteConflict) {
    const auto rd = make_set(field_b, false, 10, 30);
    const auto wr = make_set(field_b, true, 20, 25);
    hz::task_scope sr(arena_key(), "task.reader", 2, &rd);
    hz::task_scope sw(arena_key(), "task.writer", 3, &wr);

    const auto vs = hz::take_violations();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].k, hz::violation::kind::conflict_rw);
    EXPECT_EQ(vs[0].field, field_b);
    EXPECT_EQ(vs[0].lo, 20);
    EXPECT_EQ(vs[0].hi, 25);
    EXPECT_STREQ(vs[0].other_site, "task.reader");
}

TEST_F(HazardTracker, ReaderOverLiveWriterIsAReadWriteConflict) {
    const auto wr = make_set(field_b, true, 0, 16);
    const auto rd = make_set(field_b, false, 8, 12);
    hz::task_scope sw(arena_key(), "task.writer", 0, &wr);
    hz::task_scope sr(arena_key(), "task.reader", 1, &rd);

    const auto vs = hz::take_violations();
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].k, hz::violation::kind::conflict_rw);
    EXPECT_STREQ(vs[0].site, "task.reader");
    EXPECT_STREQ(vs[0].other_site, "task.writer");
}

TEST_F(HazardTracker, ConcurrentReadersAreBenignSharing) {
    const auto a = make_set(field_a, false, 0, 64);
    const auto b = make_set(field_a, false, 0, 64);
    hz::task_scope sa(arena_key(), "task.a", 0, &a);
    hz::task_scope sb(arena_key(), "task.b", 1, &b);
    EXPECT_EQ(hz::violation_count(), 0u);
}

TEST_F(HazardTracker, SequentialScopesNeverConflict) {
    // Ordered tasks (continuation chains) never overlap in time; the exited
    // scope's stamps are cleared, so re-stamping the same range is clean.
    const auto w = make_set(field_a, true, 0, 64);
    { hz::task_scope s1(arena_key(), "task.first", 0, &w); }
    { hz::task_scope s2(arena_key(), "task.second", 0, &w); }
    EXPECT_EQ(hz::violation_count(), 0u);
}

TEST_F(HazardTracker, UnknownArenaStaysInert) {
    const auto decl = make_set(field_a, true, 0, 10);
    const int other = 0;
    hz::task_scope scope(&other, "task.stranger", 0, &decl);
    hz::task_scope rival(&other, "task.rival", 1, &decl);
    EXPECT_EQ(hz::violation_count(), 0u);
}

TEST_F(HazardTracker, RacyTwoTaskGraphIsCaughtInFlight) {
    // The end-to-end shape of the bug the tracker exists for: two runtime
    // tasks with overlapping declared writes and *no ordering edge*, held
    // in flight simultaneously.  Each scope must observe the other's live
    // stamps on the shared range.
    const auto a = make_set(field_a, true, 0, 32);
    const auto b = make_set(field_a, true, 16, 48);
    std::atomic<int> in_scope{0};
    {
        amt::runtime rt(2);
        auto body = [&](const char* site, std::int64_t part,
                        const hz::access_set* decl) {
            hz::task_scope scope(arena_key(), site, part, decl);
            in_scope.fetch_add(1, std::memory_order_acq_rel);
            // Keep the scope open until both tasks have stamped, so the
            // temporal overlap is deterministic, not scheduling luck.
            while (in_scope.load(std::memory_order_acquire) < 2) {
                std::this_thread::yield();
            }
        };
        rt.post_fn([&] { body("task.a", 0, &a); });
        rt.post_fn([&] { body("task.b", 1, &b); });
    }  // runtime destructor drains both tasks

    const auto vs = hz::take_violations();
    ASSERT_FALSE(vs.empty());
    std::int64_t lo = vs.front().lo, hi = vs.front().hi;
    for (const auto& v : vs) {
        EXPECT_EQ(v.k, hz::violation::kind::conflict_ww);
        EXPECT_EQ(v.field, field_a);
        lo = std::min(lo, v.lo);
        hi = std::max(hi, v.hi);
    }
    // The recorded conflicts lie exactly in the shared range [16, 32).
    EXPECT_GE(lo, 16);
    EXPECT_LE(hi, 32);
}

TEST_F(HazardTracker, TakeViolationsDrainsTheLog) {
    const auto a = make_set(field_a, true, 0, 8);
    const auto b = make_set(field_a, true, 0, 8);
    {
        hz::task_scope sa(arena_key(), "task.a", 0, &a);
        hz::task_scope sb(arena_key(), "task.b", 1, &b);
    }
    EXPECT_EQ(hz::violation_count(), 1u);
    const auto vs = hz::take_violations();
    EXPECT_EQ(vs.size(), 1u);
    EXPECT_EQ(hz::violation_count(), 0u);
    EXPECT_FALSE(vs[0].describe().empty());
}

TEST(HazardDisarmed, ScopesAndTouchesAreInertWhenNotArmed) {
    ASSERT_FALSE(hz::armed());
    const int key = 0;
    hz::bind_arena(&key, {16});
    hz::access_set a;
    a.add(0, true, 0, 16);
    a.normalize();
    hz::access_set b = a;
    {
        hz::task_scope sa(&key, "task.a", 0, &a);
        hz::task_scope sb(&key, "task.b", 1, &b);
    }
    EXPECT_EQ(hz::violation_count(), 0u);
    hz::release_arena(&key);
}

}  // namespace
