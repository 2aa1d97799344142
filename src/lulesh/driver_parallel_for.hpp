// lulesh/driver_parallel_for.hpp
//
// The OpenMP-reference baseline: every reference parallel loop becomes one
// statically-scheduled ompsim loop with an implicit barrier — ~30 distinct
// loops per leapfrog iteration, plus ~20 loops per region per EOS
// repetition, exactly the synchronization structure whose overhead the
// paper's task-based approach removes.  The loop sequence is the shared
// fork-join step (lulesh/fork_join_step.hpp) on an ompsim backend.

#pragma once

#include "lulesh/driver.hpp"
#include "ompsim/ompsim.hpp"

namespace lulesh {

class parallel_for_driver final : public driver {
public:
    /// The team is borrowed; it must outlive the driver.  One driver per
    /// team (scratch buffers are per-driver).
    explicit parallel_for_driver(ompsim::team& team) : team_(team) {}

    [[nodiscard]] std::string name() const override { return "parallel_for"; }
    void advance(domain& d) override;

    [[nodiscard]] ompsim::team& team() noexcept { return team_; }

private:
    ompsim::team& team_;
    kernels::reference_scratch scratch_;
};

}  // namespace lulesh
