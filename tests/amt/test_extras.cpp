// Tests for amt::latch — the cooperative countdown latch.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "amt/amt.hpp"

namespace {

using namespace std::chrono_literals;

// ---------------- latch ----------------

TEST(Latch, ZeroLatchIsImmediatelyReady) {
    amt::latch l(0);
    EXPECT_TRUE(l.try_wait());
    l.wait();  // must not block
}

TEST(Latch, CountDownReleasesWaiter) {
    amt::latch l(3);
    EXPECT_FALSE(l.try_wait());
    l.count_down();
    l.count_down(2);
    EXPECT_TRUE(l.try_wait());
    l.wait();
}

TEST(Latch, ReleasesBlockedExternalThread) {
    amt::latch l(1);
    std::atomic<bool> released{false};
    std::thread waiter([&] {
        l.wait();
        released.store(true);
    });
    std::this_thread::sleep_for(5ms);
    EXPECT_FALSE(released.load());
    l.count_down();
    waiter.join();
    EXPECT_TRUE(released.load());
}

TEST(Latch, CooperativeWaitInsideTasks) {
    // One worker: a task waits on a latch that later tasks count down — only
    // completes because latch::wait executes pending tasks.
    amt::runtime rt(1);
    amt::latch l(2);
    auto waiter = amt::async([&l] { l.wait(); return 1; });
    auto a = amt::async([&l] { l.count_down(); });
    auto b = amt::async([&l] { l.count_down(); });
    EXPECT_EQ(waiter.get(), 1);
    a.get();
    b.get();
}

}  // namespace
