// lulesh/driver_parallel_for.cpp — barrier-per-loop baseline driver.

#include "lulesh/driver_parallel_for.hpp"

#include "amt/fault.hpp"
#include "lulesh/fork_join_step.hpp"

namespace lulesh {

namespace {

/// ompsim backend of the fork-join step: every loop is its own parallel
/// region (`#pragma omp parallel for`), whose join is the implicit barrier.
class team_loops {
public:
    explicit team_loops(ompsim::team& team) : team_(team) {}

    void section(step_section) {}

    template <class F>
    void loop(index_t n, F&& body) {
        team_.parallel_for_range(0, n, body);
    }

    template <class... Loops>
    void nowait_loops(const Loops&... loops) {
        team_.parallel_region([&](ompsim::region_context& ctx) {
            (ctx.for_range(0, loops.n, loops.body), ...);
        });
    }

    /// One region per reduction, like the reference's reduction(min:...)
    /// loops: each thread reduces its chunk, then the team reduces the two
    /// minima.
    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        kernels::dt_constraints result;
        team_.parallel_region([&](ompsim::region_context& ctx) {
            kernels::dt_constraints local;
            ctx.for_range(0, n,
                          [&](index_t lo, index_t hi) { local = body(lo, hi); });
            const real_t dtc = ctx.reduce_min(local.dtcourant);
            const real_t dth = ctx.reduce_min(local.dthydro);
            if (ctx.thread_id() == 0) result = {dtc, dth};
        });
        return result;
    }

private:
    ompsim::team& team_;
};

}  // namespace

void parallel_for_driver::advance(domain& d) {
    // One injection site per iteration — enough for epoch-targeted fault
    // plans to hit a deterministic cycle in this driver too.
    amt::fault::probe("advance");
    team_loops loops(team_);
    fork_join_step(d, loops, scratch_);
}

}  // namespace lulesh
