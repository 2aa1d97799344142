// Tests for bulk_async — including property-style parameterized sweeps
// over range and chunk sizes verifying that every index is covered exactly
// once (the invariant the LULESH task partitioning relies on).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "amt/algorithms.hpp"
#include "amt/scheduler.hpp"
#include "amt/when_all.hpp"

namespace {

using amt::index_t;

TEST(BulkAsync, EmptyRangeGivesNoTasks) {
    amt::runtime rt(2);
    auto fs = amt::bulk_async(0, 0, 16, [](index_t, index_t) { FAIL(); });
    EXPECT_TRUE(fs.empty());
}

TEST(BulkAsync, ReversedRangeGivesNoTasks) {
    amt::runtime rt(2);
    auto fs = amt::bulk_async(10, 5, 16, [](index_t, index_t) { FAIL(); });
    EXPECT_TRUE(fs.empty());
}

TEST(BulkAsync, ChunkCountMatchesCeilDiv) {
    amt::runtime rt(2);
    auto fs = amt::bulk_async(0, 100, 16, [](index_t, index_t) {});
    EXPECT_EQ(fs.size(), 7u);  // ceil(100/16)
    amt::wait_all(fs);
}

TEST(BulkAsync, NonPositiveChunkClampedToOne) {
    amt::runtime rt(2);
    auto fs = amt::bulk_async(0, 5, 0, [](index_t lo, index_t hi) {
        EXPECT_EQ(hi - lo, 1);
    });
    EXPECT_EQ(fs.size(), 5u);
    amt::wait_all(fs);
}

TEST(BulkAsync, ThrowsWithoutRuntime) {
    ASSERT_EQ(amt::runtime::active(), nullptr);
    EXPECT_THROW((void)amt::bulk_async(0, 10, 2, [](index_t, index_t) {}),
                 std::runtime_error);
}

struct RangeChunkParam {
    index_t n;
    index_t chunk;
};

class BulkAsyncCoverage : public ::testing::TestWithParam<RangeChunkParam> {};

// Property: each index in [0, n) is visited exactly once, regardless of how
// n relates to the chunk size.
TEST_P(BulkAsyncCoverage, EveryIndexVisitedExactlyOnce) {
    const auto [n, chunk] = GetParam();
    amt::runtime rt(3);
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    auto fs = amt::bulk_async(0, n, chunk, [&visits](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
            visits[static_cast<std::size_t>(i)].fetch_add(1,
                                                          std::memory_order_relaxed);
        }
    });
    amt::when_all_void(std::move(fs)).get();
    for (index_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    RangeChunkSweep, BulkAsyncCoverage,
    ::testing::Values(RangeChunkParam{1, 1}, RangeChunkParam{1, 100},
                      RangeChunkParam{7, 3}, RangeChunkParam{64, 64},
                      RangeChunkParam{65, 64}, RangeChunkParam{100, 1},
                      RangeChunkParam{1000, 128}, RangeChunkParam{1000, 999},
                      RangeChunkParam{1024, 256}, RangeChunkParam{12345, 1000}),
    [](const ::testing::TestParamInfo<RangeChunkParam>& pinfo) {
        return "n" + std::to_string(pinfo.param.n) + "_c" +
               std::to_string(pinfo.param.chunk);
    });

TEST(BulkAsyncChains, ContinuationPerChunkWithoutIntermediateBarrier) {
    // The paper's Figure 6 pattern: two dependent element-wise kernels as a
    // per-chunk chain with a single final barrier.
    amt::runtime rt(3);
    const index_t n = 2048;
    std::vector<double> vel(static_cast<std::size_t>(n), 0.0);
    std::vector<double> pos(static_cast<std::size_t>(n), 0.0);

    std::vector<amt::future<void>> chains;
    const index_t chunk = 256;
    for (index_t lo = 0; lo < n; lo += chunk) {
        const index_t hi = std::min<index_t>(lo + chunk, n);
        chains.push_back(
            amt::async([&vel, lo, hi] {
                for (index_t i = lo; i < hi; ++i) {
                    vel[static_cast<std::size_t>(i)] = static_cast<double>(i);
                }
            }).then([&vel, &pos, lo, hi](amt::future<void>&& f) {
                f.get();
                for (index_t i = lo; i < hi; ++i) {
                    pos[static_cast<std::size_t>(i)] =
                        2.0 * vel[static_cast<std::size_t>(i)];
                }
            }));
    }
    amt::when_all_void(std::move(chains)).get();
    for (index_t i = 0; i < n; ++i) {
        EXPECT_DOUBLE_EQ(pos[static_cast<std::size_t>(i)], 2.0 * static_cast<double>(i));
    }
}

}  // namespace
