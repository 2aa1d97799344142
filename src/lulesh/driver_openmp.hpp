// lulesh/driver_openmp.hpp
//
// Optional driver using *real* OpenMP (built only when the toolchain
// provides it; see LULESH_AMT_HAVE_OPENMP in CMake).  Identical loop and
// barrier structure to parallel_for_driver — both run the shared fork-join
// step (lulesh/fork_join_step.hpp) — but with `#pragma omp` work sharing
// instead of the ompsim team; used to cross-validate that ompsim faithfully
// models the OpenMP reference's behaviour, both in results (bitwise) and in
// cost structure (micro/ablation benches).

#pragma once

#include "lulesh/driver.hpp"

namespace lulesh {

class openmp_driver final : public driver {
public:
    /// Sets the OpenMP thread count for this driver's loops (0 = runtime
    /// default).
    explicit openmp_driver(std::size_t num_threads = 0);

    [[nodiscard]] std::string name() const override { return "openmp"; }
    void advance(domain& d) override;

    [[nodiscard]] std::size_t num_threads() const noexcept { return threads_; }

private:
    std::size_t threads_;
    kernels::reference_scratch scratch_;
};

}  // namespace lulesh
