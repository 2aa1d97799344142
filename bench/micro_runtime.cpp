// bench/micro_runtime.cpp
//
// google-benchmark microbenchmarks of the runtime substrates: the costs the
// paper's tricks trade against each other — task spawn, continuation
// chaining, when_all fan-in, deque throughput, fork-join barrier cost, and
// the loop primitives of both runtimes on identical work.
//
// Also hosts the compiled-graph replay gate (`--replay-gate`): the same
// 64-chain x depth-5 iteration topology executed by re-arming a sealed
// amt::static_graph vs rebuilding the future/when_all web every iteration.
// The gate fails (non-zero exit) unless replay is >= 1.15x faster on 4
// workers AND allocation-free per iteration, so `ctest -L perf` keeps the
// replay advantage from regressing silently.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string_view>
#include <vector>

#include "amt/amt.hpp"
#include "amt/static_graph.hpp"
#include "bench_artifact.hpp"
#include "ompsim/ompsim.hpp"

// Binary-local counting allocator: one relaxed increment per allocation,
// cheap enough to stay enabled for the ordinary benchmark mode too.  The
// replay gate reads it to report allocs/iteration for both execution modes.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs new-expressions it inlines with the malloc-backed free() below
// and reports a mismatch; the pair IS matched — both global operators are
// replaced by this translation unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (size == 0) size = 1;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (size == 0) size = 1;
    size = (size + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
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

namespace {

// ---------- amt primitives ----------

void BM_AmtTaskSpawnAndGet(benchmark::State& state) {
    amt::runtime rt(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto f = amt::async([] { return 1; });
        benchmark::DoNotOptimize(f.get());
    }
}
BENCHMARK(BM_AmtTaskSpawnAndGet)->Arg(1)->Arg(2);

void BM_AmtContinuationChain(benchmark::State& state) {
    amt::runtime rt(1);
    const int depth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto f = amt::async([] { return 0; });
        for (int i = 0; i < depth; ++i) {
            f = f.then([](amt::future<int>&& v) { return v.get() + 1; });
        }
        benchmark::DoNotOptimize(f.get());
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_AmtContinuationChain)->Arg(16)->Arg(128);

void BM_AmtWhenAllFanIn(benchmark::State& state) {
    amt::runtime rt(2);
    const int width = static_cast<int>(state.range(0));
    for (auto _ : state) {
        std::vector<amt::future<void>> fs;
        fs.reserve(static_cast<std::size_t>(width));
        for (int i = 0; i < width; ++i) fs.push_back(amt::async([] {}));
        amt::when_all_void(std::move(fs)).get();
    }
    state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_AmtWhenAllFanIn)->Arg(64)->Arg(512);

void BM_WsDequePushPop(benchmark::State& state) {
    amt::ws_deque d;
    for (auto _ : state) {
        d.push(amt::make_task([] {}).release());
        delete d.pop();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WsDequePushPop);

void BM_UniqueFunctionInvokeSmall(benchmark::State& state) {
    int x = 0;
    amt::unique_function<void()> f([&x] { ++x; });
    for (auto _ : state) f();
    benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_UniqueFunctionInvokeSmall);

void BM_ChannelSetGet(benchmark::State& state) {
    amt::channel<int> ch;
    for (auto _ : state) {
        ch.set(1);
        benchmark::DoNotOptimize(ch.get().get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSetGet);

void BM_ChannelHaloPattern(benchmark::State& state) {
    // One plane-sized message per direction per "iteration", like the
    // distributed driver's corner exchange at s = 20 (400 elements/plane).
    amt::runtime rt(2);
    amt::channel<std::vector<double>> up;
    amt::channel<std::vector<double>> down;
    const std::size_t plane = 400 * 8 * 6;
    std::vector<double> buf(plane, 1.0);
    for (auto _ : state) {
        up.set(buf);
        down.set(buf);
        benchmark::DoNotOptimize(up.get().get());
        benchmark::DoNotOptimize(down.get().get());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * plane * sizeof(double)));
}
BENCHMARK(BM_ChannelHaloPattern);

// ---------- ompsim primitives ----------

void BM_OmpsimForkJoin(benchmark::State& state) {
    ompsim::team team(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        team.parallel_region([](ompsim::region_context&) {});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OmpsimForkJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_OmpsimBarrier(benchmark::State& state) {
    ompsim::team team(static_cast<std::size_t>(state.range(0)));
    const int rounds = 64;
    for (auto _ : state) {
        team.parallel_region([&](ompsim::region_context& ctx) {
            for (int i = 0; i < rounds; ++i) ctx.barrier();
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_OmpsimBarrier)->Arg(2)->Arg(4);

// ---------- loop primitives on identical work ----------

constexpr ompsim::index_t loop_n = 1 << 16;

void BM_OmpsimParallelFor(benchmark::State& state) {
    ompsim::team team(static_cast<std::size_t>(state.range(0)));
    std::vector<double> data(static_cast<std::size_t>(loop_n), 1.0);
    for (auto _ : state) {
        team.parallel_for(0, loop_n, [&data](ompsim::index_t i) {
            data[static_cast<std::size_t>(i)] *= 1.0000001;
        });
    }
    state.SetItemsProcessed(state.iterations() * loop_n);
}
BENCHMARK(BM_OmpsimParallelFor)->Arg(1)->Arg(2);

void BM_AmtBulkChunks(benchmark::State& state) {
    amt::runtime rt(static_cast<std::size_t>(state.range(0)));
    std::vector<double> data(static_cast<std::size_t>(loop_n), 1.0);
    for (auto _ : state) {
        auto wave = amt::bulk_async(
            rt, 0, loop_n, 4096, [&data](amt::index_t lo, amt::index_t hi) {
                for (amt::index_t i = lo; i < hi; ++i) {
                    data[static_cast<std::size_t>(i)] *= 1.0000001;
                }
            });
        amt::when_all_void(std::move(wave)).get();
    }
    state.SetItemsProcessed(state.iterations() * loop_n);
}
BENCHMARK(BM_AmtBulkChunks)->Arg(1)->Arg(2);

// The paper's central trade: four dependent loops as 4 barriers (Figure 5)
// vs per-chunk continuation chains with 1 barrier (Figure 6).

void BM_FourLoopsFourBarriers(benchmark::State& state) {
    amt::runtime rt(2);
    std::vector<double> data(static_cast<std::size_t>(loop_n), 1.0);
    auto body = [&data](amt::index_t lo, amt::index_t hi) {
        for (amt::index_t i = lo; i < hi; ++i) {
            data[static_cast<std::size_t>(i)] *= 1.0000001;
        }
    };
    for (auto _ : state) {
        for (int loop = 0; loop < 4; ++loop) {
            auto wave = amt::bulk_async(rt, 0, loop_n, 4096, body);
            amt::when_all_void(std::move(wave)).get();  // barrier per loop
        }
    }
    state.SetItemsProcessed(state.iterations() * loop_n * 4);
}
BENCHMARK(BM_FourLoopsFourBarriers);

void BM_FourLoopsChainedOneBarrier(benchmark::State& state) {
    amt::runtime rt(2);
    std::vector<double> data(static_cast<std::size_t>(loop_n), 1.0);
    for (auto _ : state) {
        std::vector<amt::future<void>> chains;
        for (amt::index_t lo = 0; lo < loop_n; lo += 4096) {
            const amt::index_t hi = std::min<amt::index_t>(lo + 4096, loop_n);
            auto body = [&data, lo, hi] {
                for (amt::index_t i = lo; i < hi; ++i) {
                    data[static_cast<std::size_t>(i)] *= 1.0000001;
                }
            };
            chains.push_back(amt::async(body)
                                 .then([body](amt::future<void>&& f) mutable {
                                     f.get();
                                     body();
                                 })
                                 .then([body](amt::future<void>&& f) mutable {
                                     f.get();
                                     body();
                                 })
                                 .then([body](amt::future<void>&& f) mutable {
                                     f.get();
                                     body();
                                 }));
        }
        amt::when_all_void(std::move(chains)).get();  // single barrier
    }
    state.SetItemsProcessed(state.iterations() * loop_n * 4);
}
BENCHMARK(BM_FourLoopsChainedOneBarrier);

// ---------- compiled-graph replay vs per-iteration build ----------

// The iteration shape shared by the benchmarks and the gate: `chains`
// independent dependency chains of `depth` tasks each — the static-graph
// analogue of the taskgraph driver's per-partition continuation chains.
constexpr int replay_chains = 64;
constexpr int replay_depth = 5;

/// One iteration in build mode: a fresh async + .then chain per lane, one
/// when_all barrier — allocating promises, continuations and the barrier
/// block every time.
void run_build_iteration(std::vector<double>& cells) {
    std::vector<amt::future<void>> fs;
    fs.reserve(replay_chains);
    for (int c = 0; c < replay_chains; ++c) {
        auto f = amt::async([&cells, c] { cells[static_cast<std::size_t>(c)] += 1.0; });
        for (int d = 1; d < replay_depth; ++d) {
            f = f.then([&cells, c](amt::future<void>&& prev) {
                prev.get();
                cells[static_cast<std::size_t>(c)] += 1.0;
            });
        }
        fs.push_back(std::move(f));
    }
    amt::when_all_void(std::move(fs)).get();
}

/// The same topology compiled once into a static graph for re-arm + replay.
void build_replay_graph(amt::static_graph& g, std::vector<double>& cells) {
    for (int c = 0; c < replay_chains; ++c) {
        amt::static_graph::node_id prev{};
        for (int d = 0; d < replay_depth; ++d) {
            const auto id = g.add_node(
                [&cells, c] { cells[static_cast<std::size_t>(c)] += 1.0; },
                "chain", c);
            if (d > 0) g.add_edge(prev, id);
            prev = id;
        }
    }
    g.seal();
}

void BM_GraphBuildEveryIteration(benchmark::State& state) {
    amt::runtime rt(static_cast<std::size_t>(state.range(0)));
    std::vector<double> cells(replay_chains, 0.0);
    const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
    for (auto _ : state) run_build_iteration(cells);
    const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(cells.data());
    state.SetItemsProcessed(state.iterations() * replay_chains * replay_depth);
    state.counters["allocs/iter"] = benchmark::Counter(
        static_cast<double>(a1 - a0) /
        static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}
BENCHMARK(BM_GraphBuildEveryIteration)->Arg(1)->Arg(4);

void BM_GraphArmOnceReplayN(benchmark::State& state) {
    amt::runtime rt(static_cast<std::size_t>(state.range(0)));
    std::vector<double> cells(replay_chains, 0.0);
    amt::static_graph g;
    build_replay_graph(g, cells);
    g.run(rt);  // warm-up replay outside the timed loop
    const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
    for (auto _ : state) g.run(rt);
    const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(cells.data());
    state.SetItemsProcessed(state.iterations() * replay_chains * replay_depth);
    state.counters["allocs/iter"] = benchmark::Counter(
        static_cast<double>(a1 - a0) /
        static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}
BENCHMARK(BM_GraphArmOnceReplayN)->Arg(1)->Arg(4);

// ---------- the ctest perf gate ----------

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/// Alternating-repetition measurement of one mode.  Returns {median
/// seconds per rep, median allocations per iteration}.
struct gate_sample {
    double seconds;
    double allocs_per_iter;
};

template <class RunIteration>
gate_sample measure_mode(int reps, int iters, RunIteration&& iteration) {
    std::vector<double> times, allocs;
    for (int r = 0; r < reps; ++r) {
        const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) iteration();
        const auto t1 = std::chrono::steady_clock::now();
        const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
        times.push_back(std::chrono::duration<double>(t1 - t0).count());
        allocs.push_back(static_cast<double>(a1 - a0) / iters);
    }
    return {median(times), median(allocs)};
}

int run_replay_gate() {
    constexpr std::size_t workers = 4;
    constexpr int iters = 50;
    constexpr int reps = 5;
    constexpr double required_ratio = 1.15;
    const double tasks_per_iter = replay_chains * replay_depth;

    amt::runtime rt(workers);
    std::vector<double> cells(replay_chains, 0.0);
    amt::static_graph g;
    build_replay_graph(g, cells);

    // Warm up both paths (compile cost, allocator arenas, branch
    // predictors) before any timed rep.
    for (int i = 0; i < 5; ++i) {
        g.run(rt);
        run_build_iteration(cells);
    }

    // Interleave reps of the two modes so frequency drift and co-scheduled
    // load hit both equally; the median per mode absorbs outlier reps.
    std::vector<double> replay_times, build_times, replay_allocs, build_allocs;
    for (int r = 0; r < reps; ++r) {
        const auto rs = measure_mode(1, iters, [&] { g.run(rt); });
        const auto bs =
            measure_mode(1, iters, [&] { run_build_iteration(cells); });
        replay_times.push_back(rs.seconds);
        replay_allocs.push_back(rs.allocs_per_iter);
        build_times.push_back(bs.seconds);
        build_allocs.push_back(bs.allocs_per_iter);
    }
    const double replay_s = median(replay_times);
    const double build_s = median(build_times);
    const double replay_ai = median(replay_allocs);
    const double build_ai = median(build_allocs);
    const double ratio = replay_s > 0 ? build_s / replay_s : 0.0;
    const double build_ns_task = build_s / iters / tasks_per_iter * 1e9;
    const double replay_ns_task = replay_s / iters / tasks_per_iter * 1e9;

    std::cout << "Compiled-graph replay gate: " << replay_chains
              << " chains x depth " << replay_depth << ", " << workers
              << " workers, " << iters << " iterations x " << reps
              << " reps\n"
              << "  build:  " << build_ns_task << " ns/task, " << build_ai
              << " allocs/iter\n"
              << "  replay: " << replay_ns_task << " ns/task, " << replay_ai
              << " allocs/iter\n"
              << "  ratio (build/replay): " << ratio << " (required >= "
              << required_ratio << ")\n";
    std::cout << "CSV,replay_gate," << workers << "," << iters << ","
              << build_ns_task << "," << replay_ns_task << "," << ratio << ","
              << build_ai << "," << replay_ai << "\n";

    bench::artifact art("micro_runtime");
    art.set_config("workers", static_cast<long long>(workers));
    art.set_config("iters", iters);
    art.set_config("reps", reps);
    art.add_sample("build_ns_per_task", build_ns_task, "ns");
    art.add_sample("replay_ns_per_task", replay_ns_task, "ns");
    art.add_sample("replay_speedup", ratio, "x", "higher");
    art.add_sample("replay_allocs_per_iter", replay_ai, "count");
    art.write_file();

    bool ok = true;
    if (ratio < required_ratio) {
        std::cerr << "FAIL: replay speedup " << ratio << " < "
                  << required_ratio << "\n";
        ok = false;
    }
    if (replay_ai != 0.0) {
        std::cerr << "FAIL: replay allocated " << replay_ai
                  << " times/iteration (expected 0)\n";
        ok = false;
    }
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--replay-gate") {
            return run_replay_gate();
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
