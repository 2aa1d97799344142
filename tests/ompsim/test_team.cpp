// Tests for the ompsim fork-join runtime: region execution, static
// scheduling, barriers, reductions, the timing instrumentation used by
// the Figure 11 benchmark, and allocation-free fork-join loops.
//
// The binary replaces the global allocation functions with counting
// wrappers, as tests/amt/test_alloc_count.cpp does; under a sanitizer,
// which interposes the allocator itself, they compile out and the
// allocation test is skipped.

#include "ompsim/ompsim.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <numeric>
#include <set>
#include <vector>

#include "amt/config.hpp"

// 1 when the counting allocator below is compiled in; sanitizers interpose
// the allocator themselves.
#if AMT_TSAN || defined(__SANITIZE_ADDRESS__)
#define COUNTING_ALLOCATOR 0
#else
#define COUNTING_ALLOCATOR 1
#endif

#if COUNTING_ALLOCATOR

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    if (size == 0) size = 1;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // COUNTING_ALLOCATOR

namespace {

using ompsim::index_t;
using ompsim::region_context;
using ompsim::team;

TEST(Team, ReportsThreadCount) {
    team t(3);
    EXPECT_EQ(t.num_threads(), 3u);
}

TEST(Team, ZeroThreadsClampedToOne) {
    team t(0);
    EXPECT_EQ(t.num_threads(), 1u);
}

TEST(Team, RegionRunsOnAllThreads) {
    team t(4);
    std::vector<std::atomic<int>> hits(4);
    t.parallel_region([&hits](region_context& ctx) {
        hits[ctx.thread_id()].fetch_add(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, SingleThreadTeamRunsInline) {
    team t(1);
    int x = 0;
    t.parallel_region([&x](region_context& ctx) {
        EXPECT_EQ(ctx.thread_id(), 0u);
        EXPECT_EQ(ctx.num_threads(), 1u);
        x = 42;
    });
    EXPECT_EQ(x, 42);
}

TEST(Team, ConsecutiveRegionsAllExecute) {
    team t(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i) {
        t.parallel_region([&count](region_context&) { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 300);
}

TEST(StaticChunk, PartitionIsContiguousAndComplete) {
    team t(3);
    std::vector<std::pair<index_t, index_t>> chunks(3);
    t.parallel_region([&chunks](region_context& ctx) {
        chunks[ctx.thread_id()] = ctx.static_chunk(0, 10);
    });
    // 10 over 3 threads: 4,3,3
    EXPECT_EQ(chunks[0], (std::pair<index_t, index_t>{0, 4}));
    EXPECT_EQ(chunks[1], (std::pair<index_t, index_t>{4, 7}));
    EXPECT_EQ(chunks[2], (std::pair<index_t, index_t>{7, 10}));
}

TEST(StaticChunk, EmptyRangeGivesEmptyChunks) {
    team t(2);
    t.parallel_region([](region_context& ctx) {
        auto [lo, hi] = ctx.static_chunk(5, 5);
        EXPECT_EQ(lo, hi);
    });
}

TEST(StaticChunk, FewerElementsThanThreads) {
    team t(4);
    std::atomic<int> covered{0};
    t.parallel_region([&covered](region_context& ctx) {
        auto [lo, hi] = ctx.static_chunk(0, 2);
        covered.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(covered.load(), 2);
}

class ParallelForCoverage
    : public ::testing::TestWithParam<std::pair<std::size_t, index_t>> {};

// Property: parallel_for visits every index exactly once for any team size
// and range length.
TEST_P(ParallelForCoverage, EveryIndexVisitedExactlyOnce) {
    const auto [threads, n] = GetParam();
    team t(threads);
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    t.parallel_for(0, n, [&visits](index_t i) {
        visits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    TeamAndRangeSweep, ParallelForCoverage,
    ::testing::Values(std::pair<std::size_t, index_t>{1, 100},
                      std::pair<std::size_t, index_t>{2, 101},
                      std::pair<std::size_t, index_t>{3, 1},
                      std::pair<std::size_t, index_t>{4, 3},
                      std::pair<std::size_t, index_t>{4, 1000},
                      std::pair<std::size_t, index_t>{8, 12345}),
    [](const auto& pinfo) {
        // Built by append, not operator+ chaining: the rvalue-concat chain
        // trips GCC 12's -Wrestrict false positive (PR 105329) under -O2.
        std::string name = "t";
        name += std::to_string(pinfo.param.first);
        name += "_n";
        name += std::to_string(pinfo.param.second);
        return name;
    });

TEST(Barrier, OrdersPhasesAcrossThreads) {
    // Phase 1 writes, phase 2 reads after a barrier: every thread must see
    // all phase-1 writes.
    team t(4);
    std::vector<int> data(4, 0);
    std::atomic<bool> mismatch{false};
    t.parallel_region([&](region_context& ctx) {
        data[ctx.thread_id()] = static_cast<int>(ctx.thread_id()) + 1;
        ctx.barrier();
        int sum = std::accumulate(data.begin(), data.end(), 0);
        if (sum != 1 + 2 + 3 + 4) mismatch.store(true);
    });
    EXPECT_FALSE(mismatch.load());
}

TEST(Barrier, ManyBarriersInOneRegion) {
    team t(3);
    constexpr int rounds = 200;
    std::vector<int> counters(3, 0);
    std::atomic<bool> skew{false};
    t.parallel_region([&](region_context& ctx) {
        for (int r = 0; r < rounds; ++r) {
            counters[ctx.thread_id()]++;
            ctx.barrier();
            // After each barrier all counters must be equal.
            for (int c : counters) {
                if (c != r + 1) skew.store(true);
            }
            ctx.barrier();
        }
    });
    EXPECT_FALSE(skew.load());
    for (int c : counters) EXPECT_EQ(c, rounds);
}

TEST(Reduction, MinAcrossThreads) {
    team t(4);
    std::vector<double> results(4, 0.0);
    t.parallel_region([&results](region_context& ctx) {
        const double local = 10.0 - static_cast<double>(ctx.thread_id());
        results[ctx.thread_id()] = ctx.reduce_min(local);
    });
    for (double r : results) EXPECT_DOUBLE_EQ(r, 7.0);  // 10 - 3
}

TEST(Reduction, RepeatedMinsDoNotInterfere) {
    team t(3);
    std::atomic<bool> bad{false};
    t.parallel_region([&bad](region_context& ctx) {
        for (int r = 0; r < 50; ++r) {
            const double local = static_cast<double>(
                (ctx.thread_id() + static_cast<std::size_t>(r)) % 3);
            const double m = ctx.reduce_min(local);
            if (m != 0.0) bad.store(true);  // one thread always has local 0
        }
    });
    EXPECT_FALSE(bad.load());
}

TEST(Reduction, OrFlagDetectsAnyThread) {
    team t(4);
    std::vector<int> saw(4, -1);
    t.parallel_region([&saw](region_context& ctx) {
        const bool local = ctx.thread_id() == 2;  // only thread 2 raises
        saw[ctx.thread_id()] = ctx.reduce_or(local) ? 1 : 0;
    });
    for (int s : saw) EXPECT_EQ(s, 1);
}

TEST(Reduction, OrFlagFalseWhenNoThreadRaises) {
    team t(3);
    std::atomic<int> trues{0};
    t.parallel_region([&trues](region_context& ctx) {
        if (ctx.reduce_or(false)) trues.fetch_add(1);
    });
    EXPECT_EQ(trues.load(), 0);
}

TEST(Timing, TracksRegionsAndBarriers) {
    team t(2);
    t.reset_timing();
    t.parallel_region([](region_context& ctx) { ctx.barrier(); });
    t.parallel_region([](region_context&) {});
    auto s = t.snapshot_timing();
    EXPECT_EQ(s.regions_entered, 2u);
    EXPECT_EQ(s.barriers, 2u);  // one barrier, two participants
    EXPECT_EQ(s.num_threads, 2u);
    EXPECT_GT(s.region_wall_ns, 0u);
}

TEST(Timing, ProductiveTimeRecordedInsideLoops) {
    team t(2);
    t.reset_timing();
    t.parallel_for(0, 1000000, [](index_t i) {
        volatile double x = static_cast<double>(i);
        (void)x;
    });
    auto s = t.snapshot_timing();
    EXPECT_GT(s.productive_ns, 0u);
    EXPECT_GT(s.productive_ratio(), 0.0);
    EXPECT_LE(s.productive_ratio(), 1.0 + 1e-9);
}

TEST(Timing, ResetZeroes) {
    team t(2);
    t.parallel_for(0, 100, [](index_t) {});
    t.reset_timing();
    auto s = t.snapshot_timing();
    EXPECT_EQ(s.productive_ns, 0u);
    EXPECT_EQ(s.region_wall_ns, 0u);
    EXPECT_EQ(s.regions_entered, 0u);
}

TEST(TeamStress, ManySmallRegionsWithBarriers) {
    // Models the OpenMP LULESH structure: ~30 loops with barriers per
    // iteration, many iterations.
    team t(4);
    const int iterations = 50;
    const int loops_per_iter = 30;
    std::vector<double> data(1000, 1.0);
    for (int it = 0; it < iterations; ++it) {
        for (int l = 0; l < loops_per_iter; ++l) {
            t.parallel_for(0, static_cast<index_t>(data.size()),
                           [&data](index_t i) {
                               data[static_cast<std::size_t>(i)] *= 1.0000001;
                           });
        }
    }
    auto s = t.snapshot_timing();
    EXPECT_EQ(s.regions_entered,
              static_cast<std::uint64_t>(iterations * loops_per_iter));
    EXPECT_GT(data[0], 1.0);
}

TEST(ForRange, ChunksCoverRangeExactlyOnce) {
    team t(3);
    std::vector<std::atomic<int>> visits(100);
    t.parallel_for_range(0, 100, [&visits](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
            visits[static_cast<std::size_t>(i)].fetch_add(1);
        }
    });
    for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ForRange, BodiesReceiveDisjointStaticChunks) {
    team t(4);
    std::mutex mu;
    std::vector<std::pair<index_t, index_t>> seen;
    t.parallel_for_range(0, 43, [&](index_t lo, index_t hi) {
        std::lock_guard lk(mu);
        seen.emplace_back(lo, hi);
    });
    ASSERT_EQ(seen.size(), 4u);
    std::sort(seen.begin(), seen.end());
    index_t expect_lo = 0;
    for (const auto& [lo, hi] : seen) {
        EXPECT_EQ(lo, expect_lo);
        EXPECT_GE(hi, lo);
        expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 43);
}

TEST(ForRange, InsideRegionComposesWithBarrier) {
    team t(2);
    std::vector<int> stage(100, 0);
    std::atomic<bool> bad{false};
    t.parallel_region([&](region_context& ctx) {
        ctx.for_range(0, 100, [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) stage[static_cast<std::size_t>(i)] = 1;
        });
        ctx.barrier();
        ctx.for_range(0, 100, [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) {
                if (stage[static_cast<std::size_t>(i)] != 1) bad.store(true);
            }
        });
    });
    EXPECT_FALSE(bad.load());
}

#if COUNTING_ALLOCATOR

/// Heap allocations, on any thread, while `f` runs.
template <class F>
std::uint64_t allocations_during(F&& f) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_seq_cst);
    f();
    g_counting.store(false, std::memory_order_seq_cst);
    return g_allocs.load(std::memory_order_seq_cst);
}

#endif  // COUNTING_ALLOCATOR

// A fork-join loop costs its barrier and nothing else: the region body is
// passed by reference, so neither parallel_for_range (whose closure holds
// begin, end and the body) nor a region whose callable captures three
// references touches the heap once the team is running.
TEST(TeamAllocations, LoopsAndCapturingRegionsAllocateNothing) {
#if !COUNTING_ALLOCATOR
    GTEST_SKIP() << "sanitizer build: the allocator is not counted";
#else
    team t(4);
    std::vector<double> v(1000, 1.0);
    const double scale = 1.0;
    const index_t n = 1000;
    const auto loop = [&] {
        t.parallel_for_range(0, n, [&](index_t lo, index_t hi) {
            for (index_t i = lo; i < hi; ++i) {
                v[static_cast<std::size_t>(i)] *= scale;
            }
        });
    };
    const auto region = [&] {
        t.parallel_region([&v, &scale, &n](region_context& ctx) {
            ctx.for_range(0, n, [&](index_t lo, index_t hi) {
                for (index_t i = lo; i < hi; ++i) {
                    v[static_cast<std::size_t>(i)] += scale;
                }
            });
        });
    };
    for (int i = 0; i < 10; ++i) {  // warm-up
        loop();
        region();
    }
    EXPECT_EQ(allocations_during([&] {
                  for (int i = 0; i < 100; ++i) loop();
              }),
              0u);
    EXPECT_EQ(allocations_during([&] {
                  for (int i = 0; i < 100; ++i) region();
              }),
              0u);
    // Positive control: the same closure wrapped in a std::function
    // outgrows its small-object buffer, and the counter sees that.
    EXPECT_GE(allocations_during([&] {
                  const std::function<void(region_context&)> body(
                      [&v, &scale, &n](region_context& ctx) {
                          ctx.for_range(0, n, [&](index_t lo, index_t hi) {
                              for (index_t i = lo; i < hi; ++i) {
                                  v[static_cast<std::size_t>(i)] -= scale;
                              }
                          });
                      });
                  t.parallel_region(body);
              }),
              1u);
#endif
}

TEST(TeamStress, SequentialTeamsWithDifferentSizes) {
    for (std::size_t n : {1u, 2u, 4u, 3u, 1u}) {
        team t(n);
        std::atomic<int> c{0};
        t.parallel_for(0, 1000, [&c](index_t) { c.fetch_add(1, std::memory_order_relaxed); });
        EXPECT_EQ(c.load(), 1000);
    }
}

}  // namespace
