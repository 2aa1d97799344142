// amt/algorithms.hpp
//
// Index-space parallel algorithms on top of the task scheduler.
//
// `bulk_async` is the primitive the paper's Figure 5 illustrates: manually
// partition an index range into tasks of `chunk` consecutive elements and
// return one future per task, leaving synchronization to the caller (chain
// continuations, combine with when_all, ...).

#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "amt/async.hpp"
#include "amt/future.hpp"
#include "amt/scheduler.hpp"

namespace amt {

using index_t = std::ptrdiff_t;

/// Splits [begin, end) into consecutive chunks of at most `chunk` elements
/// and schedules `body(chunk_begin, chunk_end)` as one task per chunk on
/// `rt`.  Returns the per-chunk futures without waiting.  `body` is copied
/// into every task; capture shared state by reference explicitly.
template <class F>
std::vector<future<void>> bulk_async(runtime& rt, index_t begin, index_t end,
                                     index_t chunk, F body) {
    std::vector<future<void>> futures;
    if (begin >= end) return futures;
    if (chunk <= 0) chunk = 1;
    futures.reserve(static_cast<std::size_t>((end - begin + chunk - 1) / chunk));
    for (index_t i = begin; i < end; i += chunk) {
        const index_t lo = i;
        const index_t hi = std::min<index_t>(i + chunk, end);
        futures.push_back(async(rt, [body, lo, hi]() mutable { body(lo, hi); }));
    }
    return futures;
}

/// bulk_async on the active runtime.
template <class F>
std::vector<future<void>> bulk_async(index_t begin, index_t end, index_t chunk,
                                     F body) {
    runtime* rt = runtime::active();
    if (rt == nullptr) {
        throw std::runtime_error("amt::bulk_async: no active amt::runtime");
    }
    return bulk_async(*rt, begin, end, chunk, std::move(body));
}

}  // namespace amt
