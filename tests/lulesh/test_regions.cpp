// Tests for the element → region decomposition and the EOS cost model.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;

options opts(index_t size, index_t regions, int cost = 1, int balance = 1) {
    options o;
    o.size = size;
    o.num_regions = regions;
    o.cost = cost;
    o.balance = balance;
    return o;
}

TEST(Regions, EveryElementAssignedExactlyOnce) {
    const domain d(opts(8, 11));
    std::vector<int> seen(static_cast<std::size_t>(d.numElem()), 0);
    for (index_t r = 0; r < d.numReg(); ++r) {
        for (index_t e : d.regElemList(r)) {
            ASSERT_GE(e, 0);
            ASSERT_LT(e, d.numElem());
            ++seen[static_cast<std::size_t>(e)];
        }
    }
    for (index_t e = 0; e < d.numElem(); ++e) {
        EXPECT_EQ(seen[static_cast<std::size_t>(e)], 1) << "element " << e;
    }
}

TEST(Regions, RegNumMatchesLists) {
    const domain d(opts(6, 7));
    for (index_t r = 0; r < d.numReg(); ++r) {
        for (index_t e : d.regElemList(r)) {
            EXPECT_EQ(d.regNum(e), r);
        }
    }
}

TEST(Regions, SingleRegionGetsEverything) {
    const domain d(opts(5, 1));
    EXPECT_EQ(d.numReg(), 1);
    EXPECT_EQ(static_cast<index_t>(d.regElemList(0).size()), d.numElem());
}

TEST(Regions, RequestedCountIsHonored) {
    for (index_t r : {2, 11, 16, 21}) {
        const domain d(opts(10, r));
        EXPECT_EQ(d.numReg(), r);
    }
}

TEST(Regions, AssignmentIsDeterministic) {
    const domain a(opts(8, 11));
    const domain b(opts(8, 11));
    for (index_t e = 0; e < a.numElem(); ++e) {
        EXPECT_EQ(a.regNum(e), b.regNum(e));
    }
}

TEST(Regions, DifferentSeedGivesDifferentMap) {
    options o1 = opts(8, 11);
    options o2 = opts(8, 11);
    o2.region_seed = 42;
    const domain a(o1);
    const domain b(o2);
    int differing = 0;
    for (index_t e = 0; e < a.numElem(); ++e) {
        if (a.regNum(e) != b.regNum(e)) ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(Regions, RunsAreContiguous) {
    // The reference assigns consecutive runs of elements to each region;
    // verify the run-length structure (at least some multi-element runs).
    const domain d(opts(10, 11));
    int runs = 0;
    int run_elems = 0;
    index_t last = -1;
    for (index_t e = 0; e < d.numElem(); ++e) {
        if (d.regNum(e) != last) {
            ++runs;
            last = d.regNum(e);
        }
        ++run_elems;
    }
    EXPECT_LT(runs, d.numElem() / 2) << "regions should come in runs";
}

TEST(Regions, MostRegionsNonEmptyAtRealisticSizes) {
    const domain d(opts(12, 11));
    int non_empty = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        if (!d.regElemList(r).empty()) ++non_empty;
    }
    EXPECT_GE(non_empty, 10);
}

TEST(RegionCost, DefaultTiersMatchPaper) {
    // 11 regions, cost 1: first 5 regions 1x, next 5 regions 2x, last 1
    // region 20x — the paper's "2x for 45%, 20x for 5%".
    const domain d(opts(6, 11, /*cost=*/1));
    namespace k = lulesh::kernels;
    for (index_t r = 0; r < 5; ++r) EXPECT_EQ(k::eos_rep_for_region(d, r), 1);
    for (index_t r = 5; r < 10; ++r) EXPECT_EQ(k::eos_rep_for_region(d, r), 2);
    EXPECT_EQ(k::eos_rep_for_region(d, 10), 20);
}

TEST(RegionCost, CostFlagScalesExpensiveTiers) {
    const domain d(opts(6, 11, /*cost=*/3));
    namespace k = lulesh::kernels;
    EXPECT_EQ(k::eos_rep_for_region(d, 0), 1);
    EXPECT_EQ(k::eos_rep_for_region(d, 7), 4);    // 1 + cost
    EXPECT_EQ(k::eos_rep_for_region(d, 10), 40);  // 10 * (1 + cost)
}

TEST(RegionCost, RejectsCostsThatCollapseOrOverflowTheTiers) {
    // A negative cost puts a tier's repetition count below 1, which the EOS
    // loop runs once anyway; past INT_MAX / 10 - 1 the top tier overflows.
    // Either way the region imbalance would silently disappear.
    for (int cost : {-1, -5, std::numeric_limits<int>::min(), 214748364,
                     std::numeric_limits<int>::max()}) {
        EXPECT_THROW(domain(opts(4, 11, cost)), std::invalid_argument)
            << "cost " << cost;
    }
    namespace k = lulesh::kernels;
    const domain zero(opts(4, 11, /*cost=*/0));
    EXPECT_EQ(k::eos_rep_for_region(zero, 7), 1);
    EXPECT_EQ(k::eos_rep_for_region(zero, 10), 10);
    const domain top(opts(4, 11, /*cost=*/214748363));
    EXPECT_EQ(k::eos_rep_for_region(top, 10), 2147483640);
}

TEST(RegionCost, TwentyOneRegions) {
    const domain d(opts(6, 21));
    namespace k = lulesh::kernels;
    // floor(21/2)=10 cheap; 21-(36/20=1)=20 → regions 10..19 are 2x; region
    // 20 is 20x.
    EXPECT_EQ(k::eos_rep_for_region(d, 9), 1);
    EXPECT_EQ(k::eos_rep_for_region(d, 10), 2);
    EXPECT_EQ(k::eos_rep_for_region(d, 19), 2);
    EXPECT_EQ(k::eos_rep_for_region(d, 20), 20);
}

TEST(RegionBalance, HigherBalanceSkewsSizes) {
    // With balance = 3, later regions get picked far more often.
    const domain flat(opts(10, 8, 1, /*balance=*/0));
    const domain skew(opts(10, 8, 1, /*balance=*/3));

    auto spread = [](const domain& d) {
        std::size_t mn = SIZE_MAX, mx = 0;
        for (index_t r = 0; r < d.numReg(); ++r) {
            mn = std::min(mn, d.regElemList(r).size());
            mx = std::max(mx, d.regElemList(r).size());
        }
        return std::pair{mn, mx};
    };
    const auto [fmn, fmx] = spread(flat);
    const auto [smn, smx] = spread(skew);
    // Skewed distribution should have a wider size range than flat.
    EXPECT_GT(smx - smn, (fmx - fmn) / 2);
    EXPECT_GT(smx, fmx / 2);
}

TEST(RegionBalance, RejectsBalancesWithoutIntegerWeights) {
    // A negative balance truncates every weight but region 0's to 0, so
    // the never-the-same-region-twice draw could never end; 11^19 and
    // 11^40 are past 2^64.  The domain refuses them before any draw.
    for (int balance : {-1, -5, std::numeric_limits<int>::min(), 19, 40}) {
        EXPECT_THROW(domain(opts(4, 11, 1, balance)), std::invalid_argument)
            << "balance " << balance;
    }
    // The largest balance whose 11 weights and their sum fit uint64_t.
    const domain d(opts(4, 11, 1, /*balance=*/18));
    EXPECT_EQ(d.numReg(), 11);
    // One region draws nothing, so any non-negative balance is fine.
    EXPECT_NO_THROW(lulesh::check_region_balance(1, 40));
    EXPECT_THROW(lulesh::check_region_balance(1, -1), std::invalid_argument);
    // Every weight i^2 fits; the running sum n^3/3 passes 2^64 between
    // three and four million regions.
    EXPECT_NO_THROW(lulesh::check_region_balance(3'000'000, 2));
    EXPECT_THROW(lulesh::check_region_balance(4'000'000, 2),
                 std::invalid_argument);
}

TEST(RegionBalance, RejectsMapsThatCanNeverLeaveARegion) {
    // A draw spans R = min(weight sum, 2^31) values.  With two regions,
    // region 1 covers all of them but one, so the draw that must leave it
    // succeeds once in R tries: -b 40 never finished a map, -b 20 is past
    // the 2^20 cap and -b 19 is under it.
    EXPECT_THROW(lulesh::check_region_balance(2, 40), std::invalid_argument);
    EXPECT_THROW(lulesh::check_region_balance(2, 20), std::invalid_argument);
    EXPECT_THROW(domain(opts(4, 2, 1, /*balance=*/40)), std::invalid_argument);
    EXPECT_NO_THROW(lulesh::check_region_balance(2, 19));
    EXPECT_EQ(domain(opts(4, 2, 1, /*balance=*/19)).numReg(), 2);
    // Eleven regions: region 3's bins cover most of [0, 2^31), and the
    // others still hold 387,682,634 of those values.
    EXPECT_NO_THROW(lulesh::check_region_balance(11, 18));
}

}  // namespace
