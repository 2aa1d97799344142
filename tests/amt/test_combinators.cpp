// Tests for when_all / when_all_void / wait_all — the barrier
// combinators the LULESH task driver builds its 7 per-iteration
// synchronization points from.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "amt/async.hpp"
#include "amt/future.hpp"
#include "amt/scheduler.hpp"
#include "amt/when_all.hpp"

namespace {

using amt::future;
using amt::make_ready_future;
using amt::promise;

TEST(WhenAll, EmptyVectorIsImmediatelyReady) {
    std::vector<future<int>> fs;
    auto all = amt::when_all(std::move(fs));
    EXPECT_TRUE(all.is_ready());
    EXPECT_TRUE(all.get().empty());
}

TEST(WhenAll, ReadyInputsGiveReadyResult) {
    std::vector<future<int>> fs;
    fs.push_back(make_ready_future(1));
    fs.push_back(make_ready_future(2));
    auto all = amt::when_all(std::move(fs));
    ASSERT_TRUE(all.is_ready());
    auto results = all.get();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].get(), 1);
    EXPECT_EQ(results[1].get(), 2);
}

TEST(WhenAll, BecomesReadyOnlyAfterLastInput) {
    promise<int> p1;
    promise<int> p2;
    std::vector<future<int>> fs;
    fs.push_back(p1.get_future());
    fs.push_back(p2.get_future());
    auto all = amt::when_all(std::move(fs));
    EXPECT_FALSE(all.is_ready());
    p1.set_value(10);
    EXPECT_FALSE(all.is_ready());
    p2.set_value(20);
    ASSERT_TRUE(all.is_ready());
    auto results = all.get();
    EXPECT_EQ(results[0].get(), 10);
    EXPECT_EQ(results[1].get(), 20);
}

TEST(WhenAll, PreservesInputOrder) {
    promise<int> ps[4];
    std::vector<future<int>> fs;
    for (auto& p : ps) fs.push_back(p.get_future());
    auto all = amt::when_all(std::move(fs));
    // Complete out of order.
    ps[2].set_value(2);
    ps[0].set_value(0);
    ps[3].set_value(3);
    ps[1].set_value(1);
    auto results = all.get();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), i);
    }
}

TEST(WhenAll, WithRuntimeAndAsyncTasks) {
    amt::runtime rt(2);
    std::vector<future<int>> fs;
    for (int i = 0; i < 20; ++i) {
        fs.push_back(amt::async([i] { return i * i; }));
    }
    auto results = amt::when_all(std::move(fs)).get();
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), i * i);
    }
}

TEST(WhenAll, ContinuationAfterBarrier) {
    // The paper's pattern: attach follow-up work to the barrier future
    // (hpx::when_all(...).then(...)) instead of blocking.
    amt::runtime rt(2);
    std::atomic<int> sum{0};
    std::vector<future<void>> fs;
    for (int i = 1; i <= 10; ++i) {
        fs.push_back(amt::async([&sum, i] { sum.fetch_add(i); }));
    }
    auto after = amt::when_all(std::move(fs))
                     .then([&sum](future<std::vector<future<void>>>&& all) {
                         (void)all.get();
                         return sum.load();
                     });
    EXPECT_EQ(after.get(), 55);
}

TEST(WhenAllVoid, ReadyWhenAllInputsReady) {
    amt::runtime rt(2);
    std::atomic<int> count{0};
    std::vector<future<void>> fs;
    for (int i = 0; i < 8; ++i) {
        fs.push_back(amt::async([&count] { count.fetch_add(1); }));
    }
    amt::when_all_void(std::move(fs)).get();
    EXPECT_EQ(count.load(), 8);
}

TEST(WhenAllVoid, PropagatesFirstException) {
    std::vector<future<void>> fs;
    fs.push_back(make_ready_future());
    fs.push_back(amt::make_exceptional_future<void>(
        std::make_exception_ptr(std::runtime_error("inner"))));
    auto f = amt::when_all_void(std::move(fs));
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(WaitAll, DoesNotConsumeFutures) {
    amt::runtime rt(2);
    std::vector<future<int>> fs;
    for (int i = 0; i < 5; ++i) fs.push_back(amt::async([i] { return i; }));
    amt::wait_all(fs);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(fs[static_cast<std::size_t>(i)].valid());
        EXPECT_EQ(fs[static_cast<std::size_t>(i)].get(), i);
    }
}

TEST(WhenAllStress, LargeFanIn) {
    amt::runtime rt(4);
    constexpr int n = 5000;
    std::atomic<int> count{0};
    std::vector<future<void>> fs;
    fs.reserve(n);
    for (int i = 0; i < n; ++i) {
        fs.push_back(amt::async([&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
    amt::when_all_void(std::move(fs)).get();
    EXPECT_EQ(count.load(), n);
}

TEST(WhenAllStress, RepeatedBarriersLikeLeapfrogIterations) {
    // Models the LULESH driver: many iterations, each building a wave of
    // tasks closed by a when_all barrier.
    amt::runtime rt(2);
    std::atomic<int> total{0};
    for (int iter = 0; iter < 100; ++iter) {
        std::vector<future<void>> wave;
        for (int i = 0; i < 32; ++i) {
            wave.push_back(amt::async(
                [&total] { total.fetch_add(1, std::memory_order_relaxed); }));
        }
        amt::when_all_void(std::move(wave)).get();
    }
    EXPECT_EQ(total.load(), 3200);
}

}  // namespace
