// bench/dist_scaling.cpp
//
// Extension benchmark for the paper's future-work claim ("we anticipate
// additional benefits from using the asynchronous mechanisms of HPX instead
// of the mostly synchronous data exchange mechanisms of MPI"): the
// multi-domain slab decomposition run with
//   * futurized halo exchange (per-slab progress, channel futures), vs
//   * bulk-synchronous exchange (a global barrier per wave, MPI-style),
// across slab counts, plus the single-domain task graph as the no-
// decomposition reference.  Both decomposed modes compile the same slab
// graph, differ only in whether the slabs share one barrier per wave, and
// produce bitwise identical physics to the single-domain run (verified by
// the test suite), so the comparison is pure synchronization structure.

#include "bench_common.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"

namespace {

using mode = lulesh::dist::dist_driver::exchange_mode;

double run_dist(const lulesh::options& problem, lulesh::index_t slabs,
                mode m, std::size_t threads, lulesh::partition_sizes parts,
                int iters) {
    lulesh::dist::cluster c(problem, slabs);
    amt::runtime rt(threads);
    lulesh::dist::dist_driver drv(rt, parts, m);
    return lulesh::dist::run_simulation(c, drv, iters).elapsed_seconds;
}

/// The bench_common timing policy for the dist runner: one untimed warm-up,
/// then `reps` samples sorted ascending (front = min, middle = median).
std::vector<double> run_dist_reps(const lulesh::options& problem,
                                  lulesh::index_t slabs, mode m,
                                  std::size_t threads,
                                  lulesh::partition_sizes parts, int iters,
                                  int reps) {
    run_dist(problem, slabs, m, threads, parts, iters);
    std::vector<double> s;
    s.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        s.push_back(run_dist(problem, slabs, m, threads, parts, iters));
    }
    std::sort(s.begin(), s.end());
    return s;
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
         .reps = 1});
    const auto threads = static_cast<std::size_t>(sweep.threads.front());

    std::cout << "=== Extension: multi-domain decomposition — futurized vs "
                 "bulk-synchronous halo exchange ===\n"
              << "threads: " << threads << ", iterations: " << sweep.iters
              << "\n\n";
    std::cout << std::left << std::setw(6) << "size" << std::setw(7) << "slabs"
              << std::setw(14) << "futurized(s)" << std::setw(14)
              << "bulk-sync(s)" << std::setw(12) << "fut/bsp" << "\n";

    bench::artifact art("dist_scaling");
    art.set_config("sizes", bench::join_ints(sweep.sizes));
    art.set_config("threads", static_cast<long long>(threads));
    art.set_config("iters", sweep.iters);
    art.set_config("reps", sweep.reps);

    std::vector<std::string> csv;
    for (int size : sweep.sizes) {
        lulesh::options problem;
        problem.size = static_cast<lulesh::index_t>(size);
        problem.num_regions = 11;
        const auto parts = bench::tuned_parts(size);

        // Single-domain reference.
        const auto single_reps = bench::run_config_reps(
            problem, "taskgraph", threads, parts, sweep.iters, sweep.reps);
        const auto single = single_reps.median();
        art.add_seconds(
            bench::metric_key("single_seconds", {{"s", size}}), single_reps);
        std::cout << std::left << std::setw(6) << size << std::setw(7) << 1
                  << std::setw(14) << std::setprecision(4) << single.seconds
                  << std::setw(14) << "-" << std::setw(12) << "-"
                  << "  (single domain)\n";

        for (lulesh::index_t slabs : {2, 4}) {
            if (slabs > problem.size) continue;
            const auto fut_reps =
                run_dist_reps(problem, slabs, mode::futurized, threads, parts,
                              sweep.iters, sweep.reps);
            const auto bsp_reps =
                run_dist_reps(problem, slabs, mode::bulk_synchronous, threads,
                              parts, sweep.iters, sweep.reps);
            const double fut = fut_reps[fut_reps.size() / 2];
            const double bsp = bsp_reps[bsp_reps.size() / 2];
            const auto sl = static_cast<int>(slabs);
            for (const double v : fut_reps) {
                art.add_sample(bench::metric_key("futurized_seconds",
                                                 {{"s", size}, {"sl", sl}}),
                               v);
            }
            for (const double v : bsp_reps) {
                art.add_sample(bench::metric_key("bsp_seconds",
                                                 {{"s", size}, {"sl", sl}}),
                               v);
            }
            std::cout << std::left << std::setw(6) << size << std::setw(7)
                      << slabs << std::setw(14) << std::setprecision(4) << fut
                      << std::setw(14) << bsp << std::setw(12) << fut / bsp
                      << "\n";
            std::ostringstream row;
            row << "CSV,dist," << size << "," << slabs << "," << fut << ","
                << bsp;
            csv.push_back(row.str());
        }
        std::cout << "\n";
    }
    std::cout << "# size,slabs,futurized_seconds,bsp_seconds\n";
    for (const auto& row : csv) std::cout << row << "\n";
    art.write_file();
    return 0;
}
