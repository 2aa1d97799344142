// bench/dist_recovery.cpp
//
// Costs of the fail-soft distributed layer (dist/resilient_dist.hpp):
//
//   1. Disarmed overhead — the futurized exchange with the failure detector
//      and channel-retry layer armed but no faults injected, vs the plain
//      fail-stop exchange.  The armed paths add per-send retransmit-cache
//      copies and heartbeat stamps; this must stay under 2% or the
//      "resilience is ~free until a fault happens" claim in
//      docs/resilience.md is wrong (the bench exits non-zero, so it doubles
//      as a regression test).
//
//   2. MTTR — mean time to repair: wall-clock cost of one full coordinated
//      recovery (slab_kill injection → detector verdict → slab rebuild →
//      channel re-wire → consistent-cycle rollback → replay to where the
//      run died), measured as the elapsed-time delta between a faulted and
//      a fault-free resilient run.

#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "dist/resilient_dist.hpp"

namespace {

constexpr std::chrono::milliseconds kTimeout{2000};

double run_plain(const lulesh::options& problem, lulesh::index_t slabs,
                 std::size_t threads, lulesh::partition_sizes parts, int iters,
                 bool armed) {
    lulesh::dist::cluster c(problem, slabs);
    amt::runtime rt(threads);
    lulesh::dist::dist_driver drv(
        rt, parts, lulesh::dist::dist_driver::exchange_mode::futurized,
        armed ? kTimeout : std::chrono::milliseconds(0),
        armed ? lulesh::dist::retry_policy{}
              : lulesh::dist::retry_policy::none());
    return lulesh::dist::run_simulation(c, drv, iters).elapsed_seconds;
}

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

// Minimum over reps: the run cost is deterministic and external noise is
// strictly additive, so the min is the robust estimator for an overhead
// comparison with a 2% bar (a median of few reps still carries ~5% jitter
// on the sub-100ms reduced sweep).
double min_of(const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
}

struct resilient_timing {
    double seconds = 0.0;
    int recoveries = 0;
};

resilient_timing run_resilient_timed(const lulesh::options& problem,
                                     lulesh::index_t slabs,
                                     std::size_t threads,
                                     lulesh::partition_sizes parts, int iters,
                                     bool inject_kill) {
    lulesh::dist::cluster c(problem, slabs);
    amt::runtime rt(threads);
    lulesh::dist::dist_driver drv(
        rt, parts, lulesh::dist::dist_driver::exchange_mode::futurized,
        kTimeout, lulesh::dist::retry_policy{});
    lulesh::resilience_options opt;
    opt.checkpoint_every = 5;
    opt.max_recoveries = 3;
    if (inject_kill) {
        amt::fault::plan p;
        p.site = "slab_kill:1";
        p.epoch = iters / 2;
        p.max_injections = 1;
        amt::fault::arm(p);
    }
    const auto rr = lulesh::dist::run_resilient(c, drv, opt, iters);
    if (inject_kill) amt::fault::disarm();
    resilient_timing t;
    t.seconds = rr.result.elapsed_seconds;
    t.recoveries = rr.recoveries;
    if (rr.result.run_status != lulesh::status::ok) {
        std::cerr << "dist_recovery: resilient run failed unexpectedly: "
                  << rr.result.error_message << "\n";
        std::exit(1);
    }
    return t;
}

}  // namespace

int main(int argc, char** argv) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    bench::sweep_options sweep = bench::parse_sweep(
        argc, argv,
        {.sizes = {12},
         .threads = {static_cast<int>(std::min(4u, hw * 2))},
         .regions = {11},
         .iters = 30,
         .reps = 5});
    const auto threads = static_cast<std::size_t>(sweep.threads.front());
    const lulesh::index_t slabs = 2;

    std::cout << "=== Fail-soft distributed layer: disarmed overhead and "
                 "MTTR ===\n"
              << "threads: " << threads << ", slabs: " << slabs
              << ", iterations: " << sweep.iters << ", reps: " << sweep.reps
              << "\n\n";

    bench::artifact art("dist_recovery");
    art.set_config("sizes", bench::join_ints(sweep.sizes));
    art.set_config("threads", static_cast<long long>(threads));
    art.set_config("slabs", static_cast<long long>(slabs));
    art.set_config("iters", sweep.iters);
    art.set_config("reps", sweep.reps);

    bool ok = true;
    std::vector<std::string> csv;
    for (int size : sweep.sizes) {
        lulesh::options problem;
        problem.size = static_cast<lulesh::index_t>(size);
        problem.num_regions = 11;
        const auto parts = bench::tuned_parts(size);

        // Policy warm-up (bench_common.hpp): one untimed run before the
        // rep loop so first-touch costs never land in a kept sample.
        run_plain(problem, slabs, threads, parts, sweep.iters,
                  /*armed=*/false);
        std::vector<double> base_s, armed_s;
        for (int r = 0; r < sweep.reps; ++r) {
            base_s.push_back(run_plain(problem, slabs, threads, parts,
                                       sweep.iters, /*armed=*/false));
            armed_s.push_back(run_plain(problem, slabs, threads, parts,
                                        sweep.iters, /*armed=*/true));
        }
        const double base = min_of(base_s);
        const double armed = min_of(armed_s);
        const double overhead_pct = (armed / base - 1.0) * 100.0;

        // MTTR: elapsed delta between a slab_kill-faulted resilient run
        // (one coordinated recovery) and the fault-free resilient run.
        std::vector<double> clean_s, faulted_s;
        int recoveries = 0;
        for (int r = 0; r < sweep.reps; ++r) {
            clean_s.push_back(run_resilient_timed(problem, slabs, threads,
                                                  parts, sweep.iters,
                                                  /*inject_kill=*/false)
                                  .seconds);
            const auto faulted = run_resilient_timed(
                problem, slabs, threads, parts, sweep.iters,
                /*inject_kill=*/true);
            faulted_s.push_back(faulted.seconds);
            recoveries = faulted.recoveries;
        }
        const double mttr_ms =
            (median_of(faulted_s) - median_of(clean_s)) * 1000.0;

        std::cout << "size " << size << ": fail-stop " << std::setprecision(4)
                  << base << " s, armed " << armed << " s  (overhead "
                  << overhead_pct << "%), MTTR ~" << mttr_ms << " ms over "
                  << recoveries << " recovery\n";
        // The 2% bar applies to the steady state; the reduced default sweep
        // (~50ms baseline) cannot resolve 2% against scheduler noise even
        // with min-of-reps, so only baselines long enough to measure the
        // bar are gated — shorter runs still print their numbers, and the
        // recoveries gate below always applies.
        if (overhead_pct >= 2.0 && base > 0.25) {
            std::cerr << "dist_recovery: armed overhead " << overhead_pct
                      << "% exceeds the 2% bar\n";
            ok = false;
        }
        if (recoveries < 1) {
            std::cerr << "dist_recovery: slab_kill injection produced no "
                         "recovery\n";
            ok = false;
        }

        for (const double v : base_s) {
            art.add_sample(bench::metric_key("base_seconds", {{"s", size}}),
                           v);
        }
        for (const double v : armed_s) {
            art.add_sample(bench::metric_key("armed_seconds", {{"s", size}}),
                           v);
        }
        art.add_sample(bench::metric_key("armed_overhead_pct", {{"s", size}}),
                       overhead_pct, "pct");
        art.add_sample(bench::metric_key("mttr_ms", {{"s", size}}), mttr_ms,
                       "ms");

        std::ostringstream row;
        row << "CSV,dist_recovery," << size << "," << slabs << "," << base
            << "," << armed << "," << overhead_pct << "," << mttr_ms << ","
            << recoveries;
        csv.push_back(row.str());
    }
    std::cout << "\n# size,slabs,base_seconds,armed_seconds,overhead_pct,"
                 "mttr_ms,recoveries\n";
    for (const auto& row : csv) std::cout << row << "\n";
    art.write_file();
    return ok ? 0 : 1;
}
