// Allocation regression tests for the compiled-graph replay path.
//
// The binary replaces the global allocation functions with counting
// wrappers (malloc-backed, delegating nothing to the default operator
// new) and asserts the central claim of the replay design: once the
// iteration graph is compiled and warmed up, re-arming and replaying it
// performs ZERO heap allocations — in the raw amt::static_graph engine
// and in the full taskgraph driver's steady state.  The compile phase
// gets a checked-in budget.  Two positive controls prove the counter
// observes what the replay path eliminated: every task posted through
// runtime::post comes from the global heap, and so does a plain async +
// when_all chain.
//
// Sanitizer builds interpose the allocator themselves and would fight
// the counting definitions below, so under a sanitizer the counting
// apparatus compiles out and the allocation EXPECTs are skipped: the
// suite still replays the compiled graph under ThreadSanitizer (ctest -L
// tsan) purely for race coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "amt/amt.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/domain.hpp"

// 1 when the counting allocator below is compiled in; sanitizers interpose
// the allocator themselves.
#if AMT_TSAN || defined(__SANITIZE_ADDRESS__)
#define COUNTING_ALLOCATOR 0
#else
#define COUNTING_ALLOCATOR 1
#endif

// ---------------------------------------------------------------------------
// Counting global allocator.  Counts only while a probe window is open so
// gtest bookkeeping outside the windows stays invisible.

namespace {

#if COUNTING_ALLOCATOR

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

void* counted_alloc(std::size_t size, std::align_val_t align) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    const auto a = static_cast<std::size_t>(align);
    if (size == 0) size = 1;
    size = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, size)) return p;
    throw std::bad_alloc();
}

#endif  // COUNTING_ALLOCATOR

/// RAII window over the counted region; read() gives allocations so far.
/// In sanitizer builds the window is inert and reads 0.
class alloc_probe {
#if !COUNTING_ALLOCATOR
public:
    [[nodiscard]] std::uint64_t read() const { return 0; }
#else
public:
    alloc_probe() {
        g_allocs.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_seq_cst);
    }
    ~alloc_probe() { g_counting.store(false, std::memory_order_seq_cst); }
    alloc_probe(const alloc_probe&) = delete;
    alloc_probe& operator=(const alloc_probe&) = delete;

    [[nodiscard]] std::uint64_t read() const {
        return g_allocs.load(std::memory_order_seq_cst);
    }
#endif  // COUNTING_ALLOCATOR
};

}  // namespace

#if COUNTING_ALLOCATOR

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

#endif  // COUNTING_ALLOCATOR

// ---------------------------------------------------------------------------

namespace {

/// The engine alone: replaying a sealed static_graph allocates nothing.
/// Nodes are owned by the graph (no heap task objects), posting goes
/// through the intrusive raw queue, and completion is a counter + futex
/// wait — nothing on this path touches the heap.
TEST(AllocCount, StaticGraphReplayIsAllocationFree) {
    amt::runtime rt(2);
    amt::static_graph g;
    std::atomic<int> runs{0};
    std::vector<amt::static_graph::node_id> ids;
    for (int i = 0; i < 64; ++i) {
        ids.push_back(g.add_node([&runs] { runs.fetch_add(1); }));
    }
    for (int i = 8; i < 64; ++i) {
        g.add_edge(ids[static_cast<std::size_t>(i - 8)],
                   ids[static_cast<std::size_t>(i)]);
    }
    g.seal();
    for (int warm = 0; warm < 3; ++warm) g.run(rt);

    std::uint64_t allocs = 0;
    {
        alloc_probe probe;
        for (int r = 0; r < 10; ++r) g.run(rt);
        allocs = probe.read();
    }
#if COUNTING_ALLOCATOR
    EXPECT_EQ(allocs, 0u) << "static_graph replay must not allocate";
#else
    (void)allocs;
#endif
    EXPECT_EQ(runs.load(), 64 * 13);
}

/// The full driver in replay mode: after the compile (first advance) and a
/// short warm-up (per-node EOS scratch reaches its steady capacity), whole
/// leapfrog iterations run without a single heap allocation.
TEST(AllocCount, TaskgraphSteadyStateReplayIsAllocationFree) {
    lulesh::options o;
    o.size = 8;
    o.num_regions = 11;
    lulesh::domain d(o);
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, lulesh::partition_sizes::tuned_for(o.size));

    for (int warm = 0; warm < 3; ++warm) drv.advance(d);
    ASSERT_NE(drv.compiled(), nullptr);
    const auto replays_before = drv.compiled()->replays();

    std::uint64_t allocs = 0;
    constexpr int window = 8;
    {
        alloc_probe probe;
        for (int i = 0; i < window; ++i) drv.advance(d);
        allocs = probe.read();
    }
#if COUNTING_ALLOCATOR
    EXPECT_EQ(allocs, 0u)
        << "steady-state replay iterations must not allocate";
#else
    (void)allocs;
#endif
    EXPECT_EQ(drv.compiled()->replays(), replays_before + window);
}

/// The compile phase (graph construction + seal + first replay) has a
/// checked-in allocation budget.  The budget is deliberately loose — it is
/// a regression tripwire against accidentally moving per-iteration work
/// into per-compile work growing without bound, not a precise contract.
TEST(AllocCount, CompilePhaseStaysWithinBudget) {
    lulesh::options o;
    o.size = 8;
    o.num_regions = 11;
    lulesh::domain d(o);
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, lulesh::partition_sizes::tuned_for(o.size));

    std::uint64_t allocs = 0;
    {
        alloc_probe probe;
        drv.advance(d);  // compiles, seals and replays once
        allocs = probe.read();
    }
    ASSERT_NE(drv.compiled(), nullptr);
#if COUNTING_ALLOCATOR
    EXPECT_GT(allocs, 0u);
    EXPECT_LT(allocs, 50'000u)
        << "compile-phase allocation budget exceeded — did per-iteration "
           "state move into compile()?";
#else
    (void)allocs;
#endif
}

/// Positive control: a future web built per iteration — async tasks
/// joined by when_all_void, the shape of graph the replay path replaced —
/// must allocate in steady state.  Proves the counting allocator actually
/// observes what replay eliminated.
TEST(AllocCount, BuildModeSteadyStateAllocates) {
    amt::runtime rt(4);
    std::vector<double> cells(64, 0.0);
    auto iteration = [&rt, &cells] {
        std::vector<amt::future<void>> wave;
        wave.reserve(cells.size());
        for (double& c : cells) {
            double* p = &c;
            wave.push_back(amt::async(rt, [p] { *p += 1.0; }));
        }
        amt::when_all_void(std::move(wave)).get();
    };
    for (int warm = 0; warm < 3; ++warm) iteration();

    std::uint64_t allocs = 0;
    {
        alloc_probe probe;
        iteration();
        allocs = probe.read();
    }
#if COUNTING_ALLOCATOR
    EXPECT_GT(allocs, 0u)
        << "a per-iteration future web allocating nothing means the "
           "counter is broken";
#else
    (void)allocs;
#endif
    EXPECT_EQ(cells.front(), 4.0);
}

/// Positive control for the replay tests' zero: runtime::post takes every
/// task object from the global heap, so the probe counts each posted task.
TEST(AllocCount, PostedHeapTasksAreCounted) {
    amt::runtime rt(4);
    constexpr int tasks = 64;
    std::atomic<int> done{0};
    auto post_and_wait = [&rt, &done] {
        done.store(0);
        for (int i = 0; i < tasks; ++i) {
            rt.post_fn([&done] { done.fetch_add(1); });
        }
        while (done.load() < tasks) std::this_thread::yield();
    };
    for (int warm = 0; warm < 3; ++warm) post_and_wait();

    std::uint64_t allocs = 0;
    {
        alloc_probe probe;
        post_and_wait();
        allocs = probe.read();
    }
#if COUNTING_ALLOCATOR
    EXPECT_GE(allocs, static_cast<std::uint64_t>(tasks))
        << "a posted task the probe does not see would make the replay "
           "tests' zero meaningless";
#else
    (void)allocs;
#endif
    EXPECT_EQ(done.load(), tasks);
}

}  // namespace
