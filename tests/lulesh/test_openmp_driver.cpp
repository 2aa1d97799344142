// Cross-validation of ompsim against real OpenMP: the two drivers share the
// same loop/barrier structure and must produce bitwise identical physics.
// This test file is only built when the toolchain provides OpenMP.

#include <gtest/gtest.h>

#include "lulesh/driver.hpp"
#include "lulesh/driver_openmp.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;

options opts(index_t size, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

TEST(OpenMPDriver, ReportsNameAndThreads) {
    lulesh::openmp_driver drv(3);
    EXPECT_EQ(drv.name(), "openmp");
    EXPECT_EQ(drv.num_threads(), 3u);
}

TEST(OpenMPDriver, DefaultThreadCountIsPositive) {
    lulesh::openmp_driver drv;
    EXPECT_GE(drv.num_threads(), 1u);
}

class OpenMPEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OpenMPEquivalence, BitwiseIdenticalToSerial) {
    const std::size_t threads = GetParam();
    const options o = opts(8);
    domain reference(o);
    {
        lulesh::serial_driver drv;
        lulesh::run_simulation(reference, drv, 30);
    }
    domain candidate(o);
    {
        lulesh::openmp_driver drv(threads);
        lulesh::run_simulation(candidate, drv, 30);
    }
    EXPECT_EQ(lulesh::max_field_difference(reference, candidate), 0.0)
        << "openmp driver with " << threads << " threads diverged";
}

INSTANTIATE_TEST_SUITE_P(Threads, OpenMPEquivalence,
                         ::testing::Values(1, 2, 4));

TEST(OpenMPDriver, MatchesOmpsimDriverExactly) {
    const options o = opts(8, 21);
    domain a(o);
    {
        lulesh::openmp_driver drv(3);
        lulesh::run_simulation(a, drv, 25);
    }
    domain b(o);
    {
        ompsim::team team(3);
        lulesh::parallel_for_driver drv(team);
        lulesh::run_simulation(b, drv, 25);
    }
    EXPECT_EQ(lulesh::max_field_difference(a, b), 0.0);
}

TEST(OpenMPDriver, ErrorPathRaisesVolumeError) {
    options o = opts(4, 2);
    domain d(o);
    d.v[3] = -1.0;
    lulesh::openmp_driver drv(2);
    const auto result = lulesh::run_simulation(d, drv, 5);
    EXPECT_EQ(result.run_status, lulesh::status::volume_error);
}

TEST(OpenMPDriver, ErrorPathRaisesQstopError) {
    options o = opts(4, 2);
    domain d(o);
    d.qstop = 1e-30;  // any viscosity trips the check
    d.q[5] = 1.0;
    lulesh::openmp_driver drv(2);
    const auto result = lulesh::run_simulation(d, drv, 5);
    EXPECT_EQ(result.run_status, lulesh::status::qstop_error);
    EXPECT_NE(result.error_message.find("artificial viscosity exceeded qstop"),
              std::string::npos)
        << result.error_message;
}

TEST(OpenMPDriver, FullRunCompletes) {
    domain d(opts(6));
    lulesh::openmp_driver drv(2);
    const auto result = lulesh::run_simulation(d, drv);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_GE(result.final_time, d.stoptime - 1e-15);
}

}  // namespace
