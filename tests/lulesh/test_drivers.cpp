// Driver equivalence and behaviour tests: every driver must produce bitwise
// identical physics; the run loop must honor stoptime and iteration caps;
// error conditions must surface as simulation_error.

#include <gtest/gtest.h>

#include <memory>

#include "amt/amt.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::partition_sizes;
using lulesh::real_t;

options small_opts(index_t size = 8, index_t regions = 11) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

/// Runs `iters` iterations with the named driver configuration and returns
/// the evolved domain.
std::unique_ptr<domain> evolve(const options& o, const std::string& which,
                               int iters, std::size_t threads = 3,
                               partition_sizes parts = {64, 64}) {
    auto d = std::make_unique<domain>(o);
    if (which == "serial") {
        lulesh::serial_driver drv;
        lulesh::run_simulation(*d, drv, iters);
    } else if (which == "parallel_for") {
        ompsim::team team(threads);
        lulesh::parallel_for_driver drv(team);
        lulesh::run_simulation(*d, drv, iters);
    } else if (which == "foreach") {
        amt::runtime rt(threads);
        lulesh::foreach_driver drv(rt);
        lulesh::run_simulation(*d, drv, iters);
    } else {
        amt::runtime rt(threads);
        lulesh::taskgraph_driver drv(rt, parts);
        lulesh::run_simulation(*d, drv, iters);
    }
    return d;
}

// ---------------- equivalence ----------------

struct EquivParam {
    const char* driver;
    std::size_t threads;
    partition_sizes parts;
};

class DriverEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(DriverEquivalence, BitwiseIdenticalToSerial) {
    const auto& param = GetParam();
    const options o = small_opts();
    auto reference = evolve(o, "serial", 40);
    auto candidate = evolve(o, param.driver, 40, param.threads, param.parts);
    EXPECT_EQ(lulesh::max_field_difference(*reference, *candidate), 0.0)
        << param.driver << " with " << param.threads << " threads diverged";
    EXPECT_EQ(reference->cycle, candidate->cycle);
    EXPECT_EQ(reference->time_, candidate->time_);
    EXPECT_EQ(reference->deltatime, candidate->deltatime);
    EXPECT_EQ(reference->dtcourant, candidate->dtcourant);
    EXPECT_EQ(reference->dthydro, candidate->dthydro);
}

INSTANTIATE_TEST_SUITE_P(
    AllDriversAndConfigs, DriverEquivalence,
    ::testing::Values(
        EquivParam{"parallel_for", 1, {64, 64}},
        EquivParam{"parallel_for", 2, {64, 64}},
        EquivParam{"parallel_for", 4, {64, 64}},
        EquivParam{"foreach", 1, {64, 64}},
        EquivParam{"foreach", 3, {64, 64}},
        EquivParam{"taskgraph", 1, {64, 64}},
        EquivParam{"taskgraph", 2, {64, 64}},
        EquivParam{"taskgraph", 4, {64, 64}},
        EquivParam{"taskgraph", 2, {1, 1}},        // pathological partitions
        EquivParam{"taskgraph", 2, {7, 13}},       // odd sizes
        EquivParam{"taskgraph", 2, {100000, 100000}},  // single task per wave
        EquivParam{"taskgraph", 3, {32, 512}},
        EquivParam{"taskgraph", 3, {512, 32}}),
    [](const ::testing::TestParamInfo<EquivParam>& pinfo) {
        return std::string(pinfo.param.driver) + "_t" +
               std::to_string(pinfo.param.threads) + "_p" +
               std::to_string(pinfo.param.parts.nodal) + "x" +
               std::to_string(pinfo.param.parts.elems);
    });

TEST(DriverEquivalenceRegions, ManyRegionsStillBitwiseEqual) {
    options o = small_opts(8, 21);
    auto reference = evolve(o, "serial", 30);
    auto task = evolve(o, "taskgraph", 30, 4, {50, 50});
    auto pfor = evolve(o, "parallel_for", 30, 4);
    auto fe = evolve(o, "foreach", 30, 4);
    EXPECT_EQ(lulesh::max_field_difference(*reference, *task), 0.0);
    EXPECT_EQ(lulesh::max_field_difference(*reference, *pfor), 0.0);
    EXPECT_EQ(lulesh::max_field_difference(*reference, *fe), 0.0);
}

TEST(DriverEquivalenceRegions, SingleRegion) {
    options o = small_opts(6, 1);
    auto reference = evolve(o, "serial", 20);
    auto task = evolve(o, "taskgraph", 20, 2, {40, 40});
    EXPECT_EQ(lulesh::max_field_difference(*reference, *task), 0.0);
}

TEST(DriverDeterminism, RepeatedRunsIdentical) {
    const options o = small_opts();
    auto a = evolve(o, "taskgraph", 25, 4, {30, 60});
    auto b = evolve(o, "taskgraph", 25, 4, {30, 60});
    EXPECT_EQ(lulesh::max_field_difference(*a, *b), 0.0);
}

TEST(DriverDeterminism, ThreadCountDoesNotChangeResults) {
    const options o = small_opts();
    auto a = evolve(o, "parallel_for", 25, 1);
    auto b = evolve(o, "parallel_for", 25, 5);
    EXPECT_EQ(lulesh::max_field_difference(*a, *b), 0.0);
}

// ---------------- run loop ----------------

TEST(RunLoop, HonorsIterationCap) {
    domain d(small_opts(6));
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv, 7);
    EXPECT_EQ(result.cycles, 7);
    EXPECT_EQ(result.run_status, lulesh::status::ok);
    EXPECT_GT(result.final_time, 0.0);
    EXPECT_GT(result.final_origin_energy, 0.0);
}

TEST(RunLoop, StopsAtStoptime) {
    domain d(small_opts(4));
    d.stoptime = 20.0 * d.deltatime;  // a few cycles only
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv);
    EXPECT_GE(result.final_time, d.stoptime - 1e-15);
    EXPECT_LT(result.cycles, 200);
}

TEST(RunLoop, ResumesWhereItStopped) {
    // Two runs of 10+10 iterations equal one run of 20.
    const options o = small_opts(6);
    domain split(o);
    domain whole(o);
    lulesh::serial_driver drv;
    lulesh::run_simulation(split, drv, 10);
    lulesh::run_simulation(split, drv, 20);  // cap is total cycles
    lulesh::run_simulation(whole, drv, 20);
    EXPECT_EQ(lulesh::max_field_difference(split, whole), 0.0);
}

TEST(RunLoop, ElapsedTimeIsMeasured) {
    domain d(small_opts(6));
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv, 5);
    EXPECT_GT(result.elapsed_seconds, 0.0);
}

// ---------------- physics sanity along the run ----------------

TEST(Physics, BlastWavePropagatesOutward) {
    domain d(small_opts(8, 1));
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 60);
    // Energy has spread beyond element 0.
    int energized = 0;
    for (index_t e = 0; e < d.numElem(); ++e) {
        if (d.e[static_cast<std::size_t>(e)] > 1e-6) ++energized;
    }
    EXPECT_GT(energized, 1);
    // Origin element has compressed (v < 1) or stayed bounded.
    EXPECT_GT(d.v[0], 0.0);
    // Nodes moved outward near the origin: node (1,0,0) has positive xd.
    EXPECT_GT(d.xd[1], 0.0);
}

TEST(Physics, SymmetryPreservedAfterManyIterations) {
    domain d(small_opts(8, 1));
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 80);
    const auto rep = lulesh::check_energy_symmetry(d);
    EXPECT_LT(rep.max_rel_diff, 1e-10);  // reads 1.9e-12
}

TEST(Physics, SymmetryPlanesStayFixed) {
    domain d(small_opts(6, 11));
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 50);
    for (index_t n : d.symmX) {
        EXPECT_EQ(d.x[static_cast<std::size_t>(n)], 0.0);
    }
    for (index_t n : d.symmY) {
        EXPECT_EQ(d.y[static_cast<std::size_t>(n)], 0.0);
    }
    for (index_t n : d.symmZ) {
        EXPECT_EQ(d.z[static_cast<std::size_t>(n)], 0.0);
    }
}

TEST(Physics, VolumesStayPositive) {
    domain d(small_opts(6));
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 60);
    for (real_t v : d.v) EXPECT_GT(v, 0.0);
}

TEST(Physics, TimeStepStaysPositiveAndBounded) {
    domain d(small_opts(6));
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 60);
    EXPECT_GT(d.deltatime, 0.0);
    EXPECT_LE(d.deltatime, d.dtmax);
    EXPECT_GT(d.dtcourant, 0.0);
    EXPECT_GT(d.dthydro, 0.0);
}

// ---------------- error paths ----------------

class DriverErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(DriverErrors, NegativeVolumeRaisesVolumeError) {
    const std::string which = GetParam();
    options o = small_opts(4, 2);
    domain d(o);
    d.v[3] = -1.0;  // hourglass control checks v > 0

    auto expect_error = [&](lulesh::driver& drv) {
        const auto result = lulesh::run_simulation(d, drv, 5);
        EXPECT_EQ(result.run_status, lulesh::status::volume_error);
    };
    if (which == std::string("serial")) {
        lulesh::serial_driver drv;
        expect_error(drv);
    } else if (which == std::string("parallel_for")) {
        ompsim::team team(2);
        lulesh::parallel_for_driver drv(team);
        expect_error(drv);
    } else if (which == std::string("foreach")) {
        amt::runtime rt(2);
        lulesh::foreach_driver drv(rt);
        expect_error(drv);
    } else {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {16, 16});
        expect_error(drv);
    }
}

TEST_P(DriverErrors, ExcessViscosityRaisesQstopError) {
    const std::string which = GetParam();
    options o = small_opts(4, 2);
    domain d(o);
    d.qstop = 1e-30;  // any viscosity trips the check
    d.q[5] = 1.0;

    lulesh::run_result result;
    if (which == "serial") {
        lulesh::serial_driver drv;
        result = lulesh::run_simulation(d, drv, 5);
    } else if (which == "parallel_for") {
        ompsim::team team(2);
        lulesh::parallel_for_driver drv(team);
        result = lulesh::run_simulation(d, drv, 5);
    } else if (which == "foreach") {
        amt::runtime rt(2);
        lulesh::foreach_driver drv(rt);
        result = lulesh::run_simulation(d, drv, 5);
    } else {
        amt::runtime rt(2);
        lulesh::taskgraph_driver drv(rt, {16, 16});
        result = lulesh::run_simulation(d, drv, 5);
    }
    EXPECT_EQ(result.run_status, lulesh::status::qstop_error);
    EXPECT_NE(result.error_message.find("artificial viscosity exceeded qstop"),
              std::string::npos)
        << result.error_message;
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, DriverErrors,
                         ::testing::Values("serial", "parallel_for", "foreach",
                                           "taskgraph"));

TEST(DriverErrors, QstopViolationRaisesQstopError) {
    options o = small_opts(4, 2);
    domain d(o);
    d.qstop = 1e-30;  // any viscosity trips the check
    d.q[5] = 1.0;
    lulesh::serial_driver drv;
    const auto result = lulesh::run_simulation(d, drv, 5);
    EXPECT_EQ(result.run_status, lulesh::status::qstop_error);
}

TEST(DriverErrors, SimulationErrorCarriesCode) {
    const lulesh::simulation_error err(lulesh::status::qstop_error, "boom");
    EXPECT_EQ(err.code(), lulesh::status::qstop_error);
    EXPECT_STREQ(err.what(), "boom");
}

}  // namespace
