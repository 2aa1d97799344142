// lulesh/driver.hpp
//
// A driver advances the Lagrange leapfrog by one iteration.  All drivers
// execute the same kernels (see kernels.hpp) and therefore produce bitwise
// identical fields; they differ only in how the per-iteration work is
// decomposed and synchronized:
//
//   serial_driver        — every kernel over its full range, in order;
//                          the hand-written oracle the tests compare to.
//   parallel_for_driver  — ompsim team, one statically-scheduled parallel
//                          loop + barrier per reference loop (the OpenMP
//                          reference baseline).
//   openmp_driver        — the same loops on libgomp (built when the
//                          toolchain provides OpenMP).
//   foreach_driver       — (src/core) amt runtime, hpx::for_each-style
//                          parallel loops with a barrier per loop; the naive
//                          HPX port the paper's related work shows to be
//                          slower than OpenMP.
//   taskgraph_driver     — (src/core) the paper's contribution: a
//                          pre-created task graph per iteration with one
//                          fused task per chunk per wave and 4 barriers.
//
// parallel_for, openmp and foreach run one shared loop sequence
// (lulesh/fork_join_step.hpp) and differ only in the loop primitive.

#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/options.hpp"
#include "lulesh/types.hpp"

namespace lulesh {

class dirty_tracker;   // lulesh/checkpoint_chain.hpp
class state_capture;   // lulesh/checkpoint_chain.hpp

/// Thrown when the simulation hits one of the reference's abort conditions.
class simulation_error : public std::runtime_error {
public:
    simulation_error(status code, const std::string& what)
        : std::runtime_error(what), code_(code) {}

    [[nodiscard]] status code() const noexcept { return code_; }

private:
    status code_;
};

class driver {
public:
    driver() = default;
    driver(const driver&) = delete;
    driver& operator=(const driver&) = delete;
    virtual ~driver() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /// One LagrangeLeapFrog iteration at the domain's current deltatime:
    /// LagrangeNodal, LagrangeElements, CalcTimeConstraintsForElems.
    /// Throws simulation_error on a volume or qstop violation.
    virtual void advance(domain& d) = 0;

    /// Reports the (field × index-range) write-sets of one advance() to a
    /// dirty_tracker: every checkpointed field over its full extent.  That
    /// is exact, not conservative — every iteration writes every
    /// checkpointed field in full, whichever driver runs it (the iteration
    /// table's write accesses cover [0, extent) of each).
    void record_dirty(dirty_tracker& t, const domain& d) const;

    /// Offers the driver a checkpoint capture to pack as tasks overlapped
    /// with its next advance().  Returns false (the default) when the
    /// driver does not overlap; the resilient loop then packs
    /// synchronously.  A driver that accepts must guarantee every region is
    /// packed from the pre-advance state (the task-graph driver joins packs
    /// into the barrier before the first wave that writes each field).
    virtual bool submit_overlapped_capture(std::shared_ptr<state_capture> cap);
};

/// Reference-ordered single-threaded driver; the ground truth for tests.
class serial_driver final : public driver {
public:
    [[nodiscard]] std::string name() const override { return "serial"; }
    void advance(domain& d) override;

private:
    kernels::reference_scratch scratch_;
};

/// Runs `drv` on `d` until stoptime or `max_cycles`, whichever comes first.
/// The iteration loop matches the reference main(): TimeIncrement, then
/// LagrangeLeapFrog.
run_result run_simulation(domain& d, driver& drv,
                          int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh
