// Exception-propagation semantics the recovery machinery depends on:
// when_all* surfaces the *first* failed input in input order (and only after
// draining every input), continuations propagate both their own and their
// antecedent's exceptions, and the bulk algorithms surface a body that
// throws mid-range without leaking or wedging the runtime.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "amt/algorithms.hpp"
#include "amt/async.hpp"
#include "amt/future.hpp"
#include "amt/scheduler.hpp"
#include "amt/when_all.hpp"

namespace {

using amt::future;
using amt::promise;

std::string message_of(future<void>&& f) {
    try {
        f.get();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "";
}

TEST(Exceptions, WhenAllVoidSurfacesFirstInputOrderException) {
    // Inputs 0 and 2 both fail; input order, not completion order, decides
    // which exception the barrier rethrows.
    promise<int> p0, p1, p2;
    std::vector<future<int>> fs;
    fs.push_back(p0.get_future());
    fs.push_back(p1.get_future());
    fs.push_back(p2.get_future());
    auto all = amt::when_all_void(std::move(fs));

    // Completion order deliberately reversed: 2 fails first.
    p2.set_exception(
        std::make_exception_ptr(std::runtime_error("error from input 2")));
    p1.set_value(1);
    p0.set_exception(
        std::make_exception_ptr(std::runtime_error("error from input 0")));

    EXPECT_EQ(message_of(std::move(all)), "error from input 0");
}

TEST(Exceptions, WhenAllVoidDrainsBeforeThrowing) {
    // The barrier must wait for *every* input — including the ones after the
    // failed one — before resolving, so no task is still running (or leaked)
    // when the caller handles the error.
    amt::runtime rt(2);
    std::atomic<int> completed{0};
    std::vector<future<void>> fs;
    fs.push_back(amt::async(rt, [] {
        throw std::runtime_error("first failure");
    }));
    for (int i = 0; i < 8; ++i) {
        fs.push_back(amt::async(rt, [&completed] {
            completed.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    auto all = amt::when_all_void(std::move(fs));
    EXPECT_EQ(message_of(std::move(all)), "first failure");
    // Barrier resolved => every input resolved, so all 8 bodies ran.
    EXPECT_EQ(completed.load(), 8);
}

TEST(Exceptions, ConcurrentFailuresAreDeterministic) {
    // All tasks fail concurrently with distinct messages; repeated runs must
    // always surface input 0's exception.
    amt::runtime rt(3);
    for (int round = 0; round < 10; ++round) {
        std::vector<future<void>> fs;
        for (int i = 0; i < 6; ++i) {
            fs.push_back(amt::async(rt, [i] {
                throw std::runtime_error("task " + std::to_string(i));
            }));
        }
        auto all = amt::when_all_void(std::move(fs));
        EXPECT_EQ(message_of(std::move(all)), "task 0");
    }
}

TEST(Exceptions, ThrowInsideThenContinuationPropagates) {
    amt::runtime rt(2);
    auto f = amt::async(rt, [] { return 21; }).then([](future<int>&& v) {
        if (v.get() == 21) {
            throw std::logic_error("continuation failed");
        }
    });
    EXPECT_THROW(f.get(), std::logic_error);
}

TEST(Exceptions, ContinuationSeesAntecedentException) {
    amt::runtime rt(2);
    auto f = amt::async(rt, []() -> int {
                 throw std::runtime_error("antecedent failed");
             }).then([](future<int>&& v) {
        return v.get() + 1;  // rethrows the antecedent's exception
    });
    try {
        f.get();
        FAIL() << "expected the antecedent's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "antecedent failed");
    }
}

TEST(Exceptions, BulkAsyncThrowMidRangeSurfacesAndDrains) {
    amt::runtime rt(2);
    std::atomic<int> visited{0};
    auto fs = amt::bulk_async(
        rt, amt::index_t{0}, amt::index_t{100}, amt::index_t{10},
        [&](amt::index_t lo, amt::index_t hi) {
            for (amt::index_t i = lo; i < hi; ++i) {
                if (i == 37) {
                    throw std::runtime_error("element 37");
                }
                visited.fetch_add(1, std::memory_order_relaxed);
            }
        });
    auto all = amt::when_all_void(std::move(fs));
    EXPECT_EQ(message_of(std::move(all)), "element 37");
    // Only the chunk containing 37 stops early; every other chunk completes.
    EXPECT_GE(visited.load(), 90);

    // The runtime stays healthy: the next bulk launch runs to completion.
    std::atomic<int> count{0};
    amt::when_all_void(amt::bulk_async(rt, amt::index_t{0}, amt::index_t{64},
                                       amt::index_t{8},
                                       [&](amt::index_t lo, amt::index_t hi) {
                                           count.fetch_add(
                                               static_cast<int>(hi - lo),
                                               std::memory_order_relaxed);
                                       }))
        .get();
    EXPECT_EQ(count.load(), 64);
}

// The for_each pattern the foreach driver runs per loop: one bulk_async wave
// of per-element bodies, then a barrier that rethrows the first failed chunk.
template <class F>
void for_each_wave(amt::runtime& rt, amt::index_t n, amt::index_t chunk,
                   F body) {
    auto wave = amt::bulk_async(rt, amt::index_t{0}, n, chunk,
                                [body](amt::index_t lo, amt::index_t hi) {
                                    for (amt::index_t i = lo; i < hi; ++i) {
                                        body(i);
                                    }
                                });
    amt::wait_all(wave);
    for (auto& f : wave) f.get();
}

TEST(Exceptions, ParallelForEachThrowMidRangePropagates) {
    amt::runtime rt(2);
    EXPECT_THROW(for_each_wave(rt, amt::index_t{64}, amt::index_t{8},
                               [](amt::index_t i) {
                                   if (i == 19) {
                                       throw std::runtime_error("mid-range");
                                   }
                               }),
                 std::runtime_error);

    // The runtime stays healthy: the next loop runs to completion.
    std::atomic<int> count{0};
    for_each_wave(rt, amt::index_t{64}, amt::index_t{8}, [&](amt::index_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 64);
}

}  // namespace
