// ompsim/team.hpp
//
// ompsim — a minimal fork-join runtime reproducing the synchronization
// structure of the OpenMP reference implementation of LULESH:
//
//   * a persistent team of OS threads (like libgomp's thread pool),
//   * `parallel_region(fn)` runs fn on every team member (the calling
//     thread participates as thread 0, like an OpenMP master),
//   * inside a region, `for_static` statically partitions an index range
//     into one contiguous chunk per thread (OpenMP `schedule(static)`),
//   * `barrier()` is a sense-reversing team barrier — the implicit barrier
//     OpenMP places at the end of every work-sharing loop,
//   * `reduce_min` / `reduce_or` model `reduction(min:...)` clauses.
//
// The runtime is deliberately *not* work-stealing and *not* asynchronous:
// its whole point is to be the faithful baseline whose barrier-per-loop
// cost the task-based driver eliminates.  Per-thread productive time is
// recorded inside `for_static` bodies, which is exactly the measurement
// methodology the paper describes for the OpenMP side of its Figure 11.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "amt/atomic.hpp"

namespace ompsim {

using index_t = std::ptrdiff_t;

/// Per-thread and aggregate timing for Figure 11's utilization metric.
struct timing_snapshot {
    std::uint64_t productive_ns = 0;   ///< sum over threads of loop-body time
    std::uint64_t region_wall_ns = 0;  ///< wall time spent inside parallel regions
    std::size_t num_threads = 0;
    std::uint64_t regions_entered = 0;
    std::uint64_t barriers = 0;

    /// Fraction of worker-seconds inside parallel regions spent computing.
    /// Single-threaded program portions are excluded, as in the paper.
    [[nodiscard]] double productive_ratio() const {
        const double denom = static_cast<double>(region_wall_ns) *
                             static_cast<double>(num_threads);
        return denom > 0.0 ? static_cast<double>(productive_ns) / denom : 0.0;
    }
};

class team;

/// Handle passed to the function executing inside a parallel region; one per
/// participating thread.
class region_context {
public:
    [[nodiscard]] std::size_t thread_id() const noexcept { return tid_; }
    [[nodiscard]] std::size_t num_threads() const noexcept;

    /// This thread's contiguous chunk of [begin, end) under a static
    /// schedule (first `rem` chunks get one extra element).
    [[nodiscard]] std::pair<index_t, index_t> static_chunk(index_t begin,
                                                           index_t end) const;

    /// Statically-scheduled loop: calls f(i) for each index of this thread's
    /// chunk, then joins the implicit end-of-loop barrier (like
    /// `#pragma omp for`).  Body time is recorded as productive.
    template <class F>
    void for_static(index_t begin, index_t end, F&& f) {
        for_static_nobarrier(begin, end, std::forward<F>(f));
        barrier();
    }

    /// As above without the trailing barrier (like `#pragma omp for nowait`).
    template <class F>
    void for_static_nobarrier(index_t begin, index_t end, F&& f) {
        const auto [lo, hi] = static_chunk(begin, end);
        const auto t0 = now_ns();
        for (index_t i = lo; i < hi; ++i) f(i);
        add_productive(now_ns() - t0);
    }

    /// Chunk-granular work sharing: calls f(lo, hi) once with this thread's
    /// static chunk, recording the body as productive time.  No trailing
    /// barrier (callers inside regions add their own, or rely on the
    /// region's fork-join).
    template <class F>
    void for_range(index_t begin, index_t end, F&& f) {
        const auto [lo, hi] = static_chunk(begin, end);
        const auto t0 = now_ns();
        f(lo, hi);
        add_productive(now_ns() - t0);
    }

    /// Team barrier (sense-reversing; spins with yield).
    void barrier();

    /// min-reduction across the team.  Includes two barriers; every thread
    /// receives the combined result.
    double reduce_min(double local);

    /// OR-reduction for error flags (volume-error aborts in LULESH).
    bool reduce_or(bool local);

private:
    friend class team;
    region_context(team& t, std::size_t tid, bool& sense)
        : team_(t), tid_(tid), sense_(sense) {}

    static std::uint64_t now_ns();
    void add_productive(std::uint64_t ns);

    team& team_;
    std::size_t tid_;
    bool& sense_;  // this thread's barrier sense, owned by the thread loop
};

/// Persistent fork-join thread team.
class team {
public:
    /// Creates a team of `num_threads` participants; `num_threads - 1` OS
    /// threads are spawned (the caller of parallel_region is thread 0).
    explicit team(std::size_t num_threads);
    team(const team&) = delete;
    team& operator=(const team&) = delete;
    ~team();

    [[nodiscard]] std::size_t num_threads() const noexcept { return n_; }

    /// Runs `fn(ctx)` on all team members and blocks until every member has
    /// finished (fork-join).  Must not be called recursively.  The team
    /// keeps only a reference to `fn` — the region blocks until every
    /// member returned, so `fn` outlives every call — and therefore
    /// allocates nothing, whatever `fn` captures.
    template <class F>
    void parallel_region(F&& fn) {
        using body = std::remove_reference_t<F>;
        run_region(region_fn{
            const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
            [](void* f, region_context& ctx) {
                (*static_cast<body*>(f))(ctx);
            }});
    }

    /// Convenience: one statically-scheduled loop as its own region —
    /// `#pragma omp parallel for` — calling f(i) per index.
    template <class F>
    void parallel_for(index_t begin, index_t end, F&& f) {
        parallel_region([&](region_context& ctx) {
            ctx.for_static_nobarrier(begin, end, f);
            // The fork-join join below is the implicit barrier.
        });
    }

    /// Chunk-granular `#pragma omp parallel for`: f(lo, hi) per thread.
    template <class F>
    void parallel_for_range(index_t begin, index_t end, F&& f) {
        parallel_region(
            [&](region_context& ctx) { ctx.for_range(begin, end, f); });
    }

    [[nodiscard]] timing_snapshot snapshot_timing() const;
    void reset_timing();

private:
    friend class region_context;

    /// A non-owning reference to a region body.
    struct region_fn {
        void* fn;
        void (*call)(void* fn, region_context& ctx);
    };

    void run_region(region_fn fn);
    void thread_loop(std::size_t tid);
    void run_member(std::size_t tid, bool& sense);

    struct alignas(64) per_thread {
        std::uint64_t productive_ns = 0;
        double reduce_slot = 0.0;
        bool flag_slot = false;
    };

    std::size_t n_;
    std::vector<std::thread> threads_;
    std::vector<per_thread> slots_;

    // Fork-join machinery.
    std::mutex fork_mu_;
    std::condition_variable fork_cv_;
    std::uint64_t generation_ = 0;
    region_fn current_fn_{};
    amt::atomic<std::size_t> done_count_{0};
    amt::atomic<bool> shutdown_{false};

    // Sense-reversing barrier state.
    amt::atomic<std::size_t> barrier_count_;
    amt::atomic<bool> barrier_sense_{false};

    // Reduction rendezvous.
    double reduce_result_ = 0.0;
    bool flag_result_ = false;

    // Barrier sense of thread 0.  Lives in the team (not thread_local) so a
    // single master thread can drive several teams without mixing senses;
    // parallel_region is not reentrant, so only one thread uses it at a time.
    bool master_sense_ = false;

    // Timing.
    amt::atomic<std::uint64_t> region_wall_ns_{0};
    amt::atomic<std::uint64_t> regions_entered_{0};
    amt::atomic<std::uint64_t> barriers_{0};
};

}  // namespace ompsim
