// Tests for amt::channel — the communication primitive the distributed
// LULESH extension builds its halo exchange from.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "amt/async.hpp"
#include "amt/channel.hpp"
#include "amt/scheduler.hpp"
#include "amt/when_all.hpp"

namespace {

using amt::channel;
using amt::channel_closed;
using amt::future;

TEST(Channel, SetThenGetDeliversValue) {
    channel<int> ch;
    ch.set(42);
    auto f = ch.get();
    ASSERT_TRUE(f.is_ready());
    EXPECT_EQ(f.get(), 42);
}

TEST(Channel, GetThenSetCompletesPendingFuture) {
    channel<int> ch;
    auto f = ch.get();
    EXPECT_FALSE(f.is_ready());
    ch.set(7);
    ASSERT_TRUE(f.is_ready());
    EXPECT_EQ(f.get(), 7);
}

TEST(Channel, ValuesDeliveredInFifoOrder) {
    channel<int> ch;
    ch.set(1);
    ch.set(2);
    ch.set(3);
    EXPECT_EQ(ch.get().get(), 1);
    EXPECT_EQ(ch.get().get(), 2);
    EXPECT_EQ(ch.get().get(), 3);
}

TEST(Channel, GettersServedInFifoOrder) {
    channel<int> ch;
    auto f1 = ch.get();
    auto f2 = ch.get();
    ch.set(10);
    EXPECT_TRUE(f1.is_ready());
    EXPECT_FALSE(f2.is_ready());
    ch.set(20);
    EXPECT_EQ(f1.get(), 10);
    EXPECT_EQ(f2.get(), 20);
}

TEST(Channel, MoveOnlyValues) {
    channel<std::unique_ptr<int>> ch;
    ch.set(std::make_unique<int>(5));
    auto v = ch.get().get();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 5);
}

TEST(Channel, HandleCopiesShareTheQueue) {
    channel<int> a;
    channel<int> b = a;
    a.set(99);
    EXPECT_EQ(b.get().get(), 99);
}

TEST(Channel, SizeApproxCountsBufferedValues) {
    channel<int> ch;
    EXPECT_EQ(ch.size_approx(), 0u);
    ch.set(1);
    ch.set(2);
    EXPECT_EQ(ch.size_approx(), 2u);
    (void)ch.get().get();
    EXPECT_EQ(ch.size_approx(), 1u);
}

TEST(Channel, CloseFailsPendingGetters) {
    channel<int> ch;
    auto f = ch.get();
    ch.close();
    ASSERT_TRUE(f.is_ready());
    EXPECT_THROW(f.get(), channel_closed);
}

TEST(Channel, CloseFailsSubsequentGetters) {
    channel<int> ch;
    ch.close();
    EXPECT_THROW(ch.get().get(), channel_closed);
}

TEST(Channel, SetOnClosedChannelThrows) {
    channel<int> ch;
    ch.close();
    EXPECT_THROW(ch.set(1), channel_closed);
}

TEST(Channel, CloseIsIdempotent) {
    channel<int> ch;
    ch.close();
    EXPECT_NO_THROW(ch.close());
}

TEST(Channel, ReopenAcceptsValuesAgainOnEveryHandle) {
    channel<int> a;
    channel<int> b = a;  // handle copy shares the state
    a.close();
    EXPECT_THROW(a.set(1), channel_closed);
    a.reopen();
    b.set(5);
    EXPECT_EQ(a.get().get(), 5);
}

TEST(Channel, ReopenStartsEmptyAndIsIdempotent) {
    channel<int> ch;
    ch.set(1);  // buffered value must not survive the close/reopen cycle
    ch.close();
    ch.reopen();
    EXPECT_EQ(ch.size_approx(), 0u);
    EXPECT_NO_THROW(ch.reopen());  // idempotent, and a no-op when open
    ch.set(2);
    EXPECT_EQ(ch.get().get(), 2);
}

TEST(Channel, GettersPendingAtCloseStayFailedAfterReopen) {
    // Reopening must not resurrect futures that were already failed with
    // channel_closed — the recovery layer re-issues fresh get() calls.
    channel<int> ch;
    auto stale = ch.get();
    ch.close();
    ch.reopen();
    EXPECT_THROW(stale.get(), channel_closed);
    ch.set(9);
    EXPECT_EQ(ch.get().get(), 9);
}

TEST(Channel, ReopenRacingSendsStressStaysCoherent) {
    // Native counterpart of the tests/model reopen litmuses: producers spam
    // set() while the main thread cycles close()/reopen(), the shape a
    // retransmit cache produces when recovery re-wires a halo fabric under
    // load.  Any individual set() may land, be discarded by a later close,
    // or bounce off the closed window — but once quiescent the channel must
    // hold only values that were actually sent, each at most once, and must
    // still do a clean FIFO roundtrip.
    channel<int> ch;
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    constexpr int kCycles = 200;
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ch, &go, p] {
            while (!go.load()) {
            }
            for (int i = 0; i < kPerProducer; ++i) {
                try {
                    ch.set(p * kPerProducer + i);  // globally unique tag
                } catch (const channel_closed&) {
                    // Raced into a closed window: a legal outcome.
                }
            }
        });
    }
    go.store(true);
    for (int c = 0; c < kCycles; ++c) {
        ch.close();
        ch.reopen();
    }
    for (auto& t : producers) t.join();

    // Quiescent: whatever survived the last reopen must be unique, valid
    // tags — no duplicated, torn, or invented values.
    std::vector<bool> seen(kProducers * kPerProducer, false);
    std::size_t drained = 0;
    while (ch.size_approx() > 0) {
        auto f = ch.get();
        ASSERT_TRUE(f.is_ready());
        const int v = f.get();
        ASSERT_GE(v, 0);
        ASSERT_LT(v, kProducers * kPerProducer);
        EXPECT_FALSE(seen[v]) << "value " << v << " delivered twice";
        seen[v] = true;
        ++drained;
    }
    EXPECT_LE(drained, static_cast<std::size_t>(kProducers * kPerProducer));

    // And the channel is fully functional after the storm.
    ch.set(-1);
    ch.set(-2);
    EXPECT_EQ(ch.get().get(), -1);
    EXPECT_EQ(ch.get().get(), -2);
}

TEST(Channel, ProducerConsumerAcrossThreads) {
    channel<int> ch;
    constexpr int n = 1000;
    std::thread producer([&ch] {
        for (int i = 0; i < n; ++i) ch.set(i);
    });
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
        auto f = ch.get();
        sum += f.get();
    }
    producer.join();
    EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(Channel, HaloExchangePatternWithContinuations) {
    // Two "localities" exchange boundary planes and each continues with a
    // dependent computation — the distributed-LULESH communication pattern.
    amt::runtime rt(2);
    channel<std::vector<double>> a_to_b;
    channel<std::vector<double>> b_to_a;

    auto locality = [](channel<std::vector<double>> send,
                       channel<std::vector<double>> recv, double base) {
        // Produce the boundary, send it, then combine with the neighbor's.
        return amt::async([send, base]() mutable {
                   std::vector<double> boundary(8, base);
                   send.set(boundary);
                   return boundary;
               })
            .then([recv](future<std::vector<double>>&& own) mutable {
                auto mine = own.get();
                auto theirs = recv.get().get();  // future chained; may wait
                double sum = 0;
                for (std::size_t i = 0; i < mine.size(); ++i) {
                    sum += mine[i] + theirs[i];
                }
                return sum;
            });
    };

    auto fa = locality(a_to_b, b_to_a, 1.0);
    auto fb = locality(b_to_a, a_to_b, 2.0);
    EXPECT_DOUBLE_EQ(fa.get(), 8 * 3.0);
    EXPECT_DOUBLE_EQ(fb.get(), 8 * 3.0);
}

}  // namespace
