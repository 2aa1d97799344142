// core/driver_foreach.hpp
//
// The naive AMT port the paper's related work discusses (Wei's lulesh-hpx):
// every reference parallel loop becomes an hpx::for_each-style parallel
// loop on the task runtime — a wave of chunk tasks followed by a blocking
// barrier, per loop.  It demonstrates why 1:1 loop replacement loses to
// OpenMP (more task-creation overhead than static work sharing, same number
// of barriers) and serves as the ablation baseline for the paper's task-
// chaining tricks.  The loop sequence is the shared fork-join step
// (lulesh/fork_join_step.hpp) on a backend of amt waves.

#pragma once

#include "amt/amt.hpp"
#include "lulesh/driver.hpp"

namespace lulesh {

class foreach_driver final : public driver {
public:
    /// The runtime is borrowed; it must outlive the driver.
    explicit foreach_driver(amt::runtime& rt) : rt_(rt) {}

    [[nodiscard]] std::string name() const override { return "foreach"; }
    void advance(domain& d) override;

private:
    amt::runtime& rt_;
    kernels::reference_scratch scratch_;
    /// One constraint partial per chunk of the current region's reduction.
    std::vector<kernels::dt_constraints> partials_;
};

}  // namespace lulesh
