// bench/eos_repetition.cpp
//
// Checks that the EOS repetitions stay real work.  The reference evaluates
// the EOS pipeline 1, 2 or 20 times per region (eos_rep_for_region); that
// is the paper's region imbalance.  Every repetition recomputes the same
// values, so once a block's values live in registers the compiler may keep
// only the last one unless the repetition barrier (simd::opaque and
// simd::keep) stops it, and the 20x region would then cost what a 1x
// region does.
//
// Times kernels::eval_eos_chunk on one 512-entry slice of the largest
// region list of an s=20 domain, evolved a few cycles, at rep 1 and at
// rep 20: the minimum of 21 interleaved runs each, with p, e, q and ss
// restored before every run.  Exits non-zero unless t(20) >= 5 t(1).

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_artifact.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
namespace k = lulesh::kernels;

constexpr lulesh::index_t slice = 512;
constexpr int runs = 21;
constexpr double required_ratio = 5.0;

}  // namespace

int main() {
    lulesh::options o;
    o.size = 20;
    lulesh::domain d(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 5; ++i) {
        k::time_increment(d);
        drv.advance(d);
    }
    lulesh::index_t region = 0;
    for (lulesh::index_t r = 1; r < d.numReg(); ++r) {
        if (d.regElemList(r).size() > d.regElemList(region).size()) region = r;
    }
    const std::vector<lulesh::index_t>& list = d.regElemList(region);
    if (static_cast<lulesh::index_t>(list.size()) < slice) {
        std::cerr << "eos_repetition: largest region has only " << list.size()
                  << " elements\n";
        return 1;
    }

    const std::vector<lulesh::real_t> p = d.p, e = d.e, q = d.q, ss = d.ss;
    auto time_rep = [&](int rep) {
        d.p = p;
        d.e = e;
        d.q = q;
        d.ss = ss;
        const auto t0 = clock_type::now();
        k::eval_eos_chunk(d, list.data(), 0, slice, rep);
        return std::chrono::duration<double>(clock_type::now() - t0).count();
    };

    time_rep(1);  // warm the slice's lines and the code
    time_rep(20);
    double t1 = std::numeric_limits<double>::infinity();
    double t20 = t1;
    for (int i = 0; i < runs; ++i) {
        t1 = std::min(t1, time_rep(1));
        t20 = std::min(t20, time_rep(20));
    }
    const double ratio = t20 / t1;

    std::cout << "eval_eos_chunk on " << slice << " entries of region "
              << region << ", min of " << runs << " interleaved runs:\n"
              << "  rep 1:  " << t1 * 1e6 << " us\n"
              << "  rep 20: " << t20 * 1e6 << " us\n"
              << "  ratio:  " << ratio << " (required >= " << required_ratio
              << ")\n";
    std::cout << "CSV,eos_repetition," << slice << "," << t1 * 1e6 << ","
              << t20 * 1e6 << "," << ratio << "\n";

    bench::artifact art("eos_repetition");
    art.set_config("slice", static_cast<long long>(slice));
    art.set_config("runs", runs);
    art.add_sample("rep1_us", t1 * 1e6, "us");
    art.add_sample("rep20_us", t20 * 1e6, "us");
    art.add_sample("rep20_over_rep1", ratio, "x", "higher");
    art.write_file();

    if (ratio < required_ratio) {
        std::cerr << "FAIL: rep 20 costs " << ratio
                  << "x rep 1; the repetitions are not all computed\n";
        return 1;
    }
    return 0;
}
