// ompsim/team.cpp — fork-join team implementation.

#include "ompsim/team.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace ompsim {

namespace {
constexpr int spin_rounds_before_sleep = 4096;
}

std::uint64_t region_context::now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::size_t region_context::num_threads() const noexcept { return team_.n_; }

std::pair<index_t, index_t> region_context::static_chunk(index_t begin,
                                                         index_t end) const {
    const index_t n = end - begin;
    if (n <= 0) return {begin, begin};
    const auto p = static_cast<index_t>(team_.n_);
    const auto t = static_cast<index_t>(tid_);
    const index_t base = n / p;
    const index_t rem = n % p;
    const index_t lo = begin + t * base + std::min(t, rem);
    const index_t hi = lo + base + (t < rem ? 1 : 0);
    return {lo, hi};
}

void region_context::add_productive(std::uint64_t ns) {
    team_.slots_[tid_].productive_ns += ns;
}

void region_context::barrier() {
    team& t = team_;
    t.barriers_.fetch_add(1, amt::memory_order_relaxed);
    sense_ = !sense_;
    if (t.barrier_count_.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
        // Last arriver: reset and release the others.
        t.barrier_count_.store(t.n_, amt::memory_order_relaxed);
        t.barrier_sense_.store(sense_, amt::memory_order_release);
    } else {
        while (t.barrier_sense_.load(amt::memory_order_acquire) != sense_) {
            std::this_thread::yield();
        }
    }
}

double region_context::reduce_min(double local) {
    team& t = team_;
    t.slots_[tid_].reduce_slot = local;
    barrier();
    if (tid_ == 0) {
        double m = t.slots_[0].reduce_slot;
        for (std::size_t i = 1; i < t.n_; ++i) {
            m = std::min(m, t.slots_[i].reduce_slot);
        }
        t.reduce_result_ = m;
    }
    barrier();
    return t.reduce_result_;
}

bool region_context::reduce_or(bool local) {
    team& t = team_;
    t.slots_[tid_].flag_slot = local;
    barrier();
    if (tid_ == 0) {
        bool any = false;
        for (std::size_t i = 0; i < t.n_; ++i) any = any || t.slots_[i].flag_slot;
        t.flag_result_ = any;
    }
    barrier();
    return t.flag_result_;
}

team::team(std::size_t num_threads)
    : n_(num_threads == 0 ? 1 : num_threads),
      slots_(n_),
      barrier_count_(n_) {
    threads_.reserve(n_ - 1);
    for (std::size_t tid = 1; tid < n_; ++tid) {
        threads_.emplace_back([this, tid] { thread_loop(tid); });
    }
}

team::~team() {
    shutdown_.store(true, amt::memory_order_release);
    fork_cv_.notify_all();
    for (auto& th : threads_) {
        if (th.joinable()) th.join();
    }
}

void team::run_member(std::size_t tid, bool& sense) {
    region_context ctx(*this, tid, sense);
    current_fn_.call(current_fn_.fn, ctx);
}

void team::run_region(region_fn fn) {
    assert(current_fn_.fn == nullptr &&
           "nested parallel regions are not supported");
    const auto t0 = std::chrono::steady_clock::now();

    current_fn_ = fn;
    done_count_.store(n_ - 1, amt::memory_order_relaxed);
    {
        std::lock_guard lk(fork_mu_);
        ++generation_;
    }
    fork_cv_.notify_all();

    run_member(0, master_sense_);

    while (done_count_.load(amt::memory_order_acquire) != 0) {
        std::this_thread::yield();
    }
    current_fn_ = {};

    region_wall_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        amt::memory_order_relaxed);
    regions_entered_.fetch_add(1, amt::memory_order_relaxed);
}

void team::thread_loop(std::size_t tid) {
    bool sense = false;
    std::uint64_t last_gen = 0;
    for (;;) {
        // Wait for the next region: spin briefly, then sleep on the condvar.
        std::uint64_t gen = last_gen;
        int spins = 0;
        for (;;) {
            {
                std::lock_guard lk(fork_mu_);
                gen = generation_;
            }
            if (gen != last_gen || shutdown_.load(amt::memory_order_acquire)) {
                break;
            }
            if (++spins < spin_rounds_before_sleep) {
                std::this_thread::yield();
            } else {
                std::unique_lock lk(fork_mu_);
                fork_cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
                    return generation_ != last_gen ||
                           shutdown_.load(amt::memory_order_acquire);
                });
                gen = generation_;
                if (gen != last_gen ||
                    shutdown_.load(amt::memory_order_acquire)) {
                    break;
                }
            }
        }
        if (gen == last_gen) break;  // shutdown with no pending region
        last_gen = gen;
        run_member(tid, sense);
        done_count_.fetch_sub(1, amt::memory_order_release);
    }
}

timing_snapshot team::snapshot_timing() const {
    timing_snapshot s;
    s.num_threads = n_;
    for (const auto& slot : slots_) s.productive_ns += slot.productive_ns;
    s.region_wall_ns = region_wall_ns_.load(amt::memory_order_relaxed);
    s.regions_entered = regions_entered_.load(amt::memory_order_relaxed);
    s.barriers = barriers_.load(amt::memory_order_relaxed);
    return s;
}

void team::reset_timing() {
    for (auto& slot : slots_) slot.productive_ns = 0;
    region_wall_ns_.store(0, amt::memory_order_relaxed);
    regions_entered_.store(0, amt::memory_order_relaxed);
    barriers_.store(0, amt::memory_order_relaxed);
}

}  // namespace ompsim
