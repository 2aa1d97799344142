// Watchdog tests: a stalled wave task is detected within the deadline from
// the runtime's task records and reported with the wave it belongs to, on
// one worker and on four; healthy runs never trip it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "amt/fault.hpp"
#include "core/driver_taskgraph.hpp"
#include "core/watchdog.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace {

using lulesh::domain;
using lulesh::options;
using lulesh::watchdog;
using std::chrono::milliseconds;

options small_opts() {
    options o;
    o.size = 6;
    o.num_regions = 5;
    return o;
}

struct fault_guard {
    ~fault_guard() {
        amt::fault::disarm();
        amt::fault::reset_stats();
        amt::fault::set_epoch(-1);
    }
};

TEST(Watchdog, HealthyRunNeverFires) {
    amt::runtime rt(2);
    lulesh::taskgraph_driver drv(rt, {256, 256});
    watchdog wd(rt, milliseconds(5000), [](const auto&) {});

    domain d(small_opts());
    lulesh::run_simulation(d, drv, 5);
    wd.stop();
    EXPECT_FALSE(wd.fired());
}

TEST(Watchdog, DetectsStalledWaveTaskAndNamesTheWave) {
    fault_guard guard;
    // One worker: the injected stall freezes the whole graph, and the
    // reported site is exactly the stuck task's wave.
    amt::runtime rt(1);
    lulesh::taskgraph_driver drv(rt, {512, 512});

    // The callback plays the recovery role: release the stuck "worker" so
    // the iteration can complete and the test terminates cleanly.
    watchdog wd(rt, milliseconds(150),
                [](const watchdog::report&) { amt::fault::release_stalls(); },
                milliseconds(10));

    amt::fault::plan p;
    p.kind = amt::fault::action::stall;
    p.site = "elem";
    p.max_injections = 1;
    p.stall_timeout = std::chrono::seconds(60);  // watchdog must beat this
    amt::fault::arm(p);

    domain d(small_opts());
    lulesh::kernels::time_increment(d);
    drv.advance(d);  // would hang forever without the watchdog release
    amt::fault::disarm();
    wd.stop();

    ASSERT_TRUE(wd.fired());
    const auto rep = wd.last_report();
    EXPECT_EQ(rep.site, "elem");
    EXPECT_GT(rep.started, rep.finished);
    EXPECT_GE(rep.stalled_for, milliseconds(150));
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
}

TEST(Watchdog, NamesTheStalledWaveWhileOtherWorkersFinishTheirTasks) {
    fault_guard guard;
    // Four workers: one sticks in an elem task, the others finish the rest
    // of the wave and go idle at its barrier.  Progress lives in one task
    // record per worker, so the report must come from summing the records
    // and from the stuck worker's in-flight label.
    amt::runtime rt(4);
    lulesh::taskgraph_driver drv(rt, {32, 32});

    std::vector<std::string> in_flight;
    watchdog wd(
        rt, milliseconds(150),
        [&](const watchdog::report&) {
            for (const char* s : rt.in_flight_labels()) {
                in_flight.emplace_back(s);
            }
            amt::fault::release_stalls();
        },
        milliseconds(10));

    amt::fault::plan p;
    p.kind = amt::fault::action::stall;
    p.site = "elem";
    p.max_injections = 1;
    p.stall_timeout = std::chrono::seconds(60);  // watchdog must beat this
    amt::fault::arm(p);

    domain d(small_opts());
    lulesh::kernels::time_increment(d);
    drv.advance(d);
    amt::fault::disarm();
    wd.stop();

    ASSERT_TRUE(wd.fired());
    const auto rep = wd.last_report();
    EXPECT_EQ(rep.site, "elem");
    EXPECT_GT(rep.started, rep.finished);
    EXPECT_NE(std::find(rep.sites.begin(), rep.sites.end(), "elem"),
              rep.sites.end());
    EXPECT_NE(std::find(in_flight.begin(), in_flight.end(), "elem"),
              in_flight.end());
    std::size_t busy_slots = 0;
    for (std::size_t w = 0; w < rt.num_workers(); ++w) {
        if (rt.worker_record(w).tasks_started.load() > 0) ++busy_slots;
    }
    EXPECT_GE(busy_slots, 2u) << "the other workers ran the rest of the wave";
    const auto counts = rt.snapshot_counters();
    EXPECT_EQ(counts.tasks_started, counts.tasks_executed);
    EXPECT_EQ(amt::fault::snapshot().injections, 1u);
}

TEST(Watchdog, StopIsIdempotent) {
    amt::runtime rt(1);
    watchdog wd(rt, milliseconds(50), [](const auto&) {});
    wd.stop();
    wd.stop();  // second call and the destructor are both no-ops
    EXPECT_FALSE(wd.fired());
}

}  // namespace
