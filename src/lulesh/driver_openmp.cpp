// lulesh/driver_openmp.cpp — real-OpenMP driver (optional build).
//
// Each reference loop is an `omp parallel` region whose threads run the
// chunk kernel on their static slice — the same contiguous chunking the
// ompsim driver uses, so results are bitwise identical across all drivers.

#include "lulesh/driver_openmp.hpp"

#include <omp.h>

#include "lulesh/fork_join_step.hpp"

namespace lulesh {

namespace {

/// Contiguous static chunk of [0, n) for this OpenMP thread.
std::pair<index_t, index_t> my_chunk(index_t n) {
    const auto p = static_cast<index_t>(omp_get_num_threads());
    const auto t = static_cast<index_t>(omp_get_thread_num());
    const index_t base = n / p;
    const index_t rem = n % p;
    const index_t lo = t * base + std::min(t, rem);
    return {lo, lo + base + (t < rem ? 1 : 0)};
}

/// libgomp backend of the fork-join step: one work-sharing region per loop;
/// OpenMP's implicit region-end barrier supplies the synchronization.
class omp_loops {
public:
    explicit omp_loops(int num_threads) : threads_(num_threads) {}

    void section(step_section) {}

    template <class F>
    void loop(index_t n, F&& body) {
#pragma omp parallel num_threads(threads_)
        {
            const auto [lo, hi] = my_chunk(n);
            body(lo, hi);
        }
    }

    template <class... Loops>
    void nowait_loops(const Loops&... loops) {
#pragma omp parallel num_threads(threads_)
        {
            (run_chunk(loops), ...);
        }
    }

    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        real_t dtc = real_t(1.0e20);
        real_t dth = real_t(1.0e20);
#pragma omp parallel num_threads(threads_) reduction(min : dtc, dth)
        {
            const auto [lo, hi] = my_chunk(n);
            const kernels::dt_constraints local = body(lo, hi);
            dtc = std::min(dtc, local.dtcourant);
            dth = std::min(dth, local.dthydro);
        }
        return {dtc, dth};
    }

private:
    template <class Loop>
    static void run_chunk(const Loop& l) {
        const auto [lo, hi] = my_chunk(l.n);
        l.body(lo, hi);
    }

    int threads_;
};

}  // namespace

openmp_driver::openmp_driver(std::size_t num_threads) : threads_(num_threads) {
    if (threads_ == 0) {
        threads_ = static_cast<std::size_t>(omp_get_max_threads());
    }
}

void openmp_driver::advance(domain& d) {
    omp_loops loops(static_cast<int>(threads_));
    fork_join_step(d, loops, scratch_);
}

}  // namespace lulesh
