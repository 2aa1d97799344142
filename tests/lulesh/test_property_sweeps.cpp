// Property-style parameterized sweeps: randomized problem configurations
// where every driver must agree bitwise with the serial ground truth, EOS
// path equivalence (fused task body vs loop-granular phases), and chunk-
// order independence of the force kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "amt/amt.hpp"
#include "core/driver_foreach.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"
#ifdef LULESH_AMT_HAVE_OPENMP
#include "lulesh/driver_openmp.hpp"
#endif

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::partition_sizes;
using lulesh::real_t;
namespace k = lulesh::kernels;

// ---------------- randomized cross-driver agreement ----------------

/// One random problem shape, drawn from a seed.  Sizes 3..10 with up to 15
/// regions leave some regions empty.
struct random_config {
    options o;
    partition_sizes parts;
    std::size_t threads = 1;
    int iters = 0;

    explicit random_config(std::uint32_t seed) {
        std::mt19937 rng(seed);
        o.size = static_cast<index_t>(3 + rng() % 8);           // 3..10
        o.num_regions = static_cast<index_t>(1 + rng() % 15);   // 1..15
        o.cost = static_cast<int>(1 + rng() % 3);
        o.balance = static_cast<int>(rng() % 3);
        o.region_seed = rng();
        parts = {static_cast<index_t>(1 + rng() % 300),
                 static_cast<index_t>(1 + rng() % 300)};
        threads = 1 + rng() % 4;
        iters = static_cast<int>(5 + rng() % 20);
    }
};

std::ostream& operator<<(std::ostream& os, const random_config& c) {
    return os << "size=" << c.o.size << " regions=" << c.o.num_regions
              << " cost=" << c.o.cost << " balance=" << c.o.balance
              << " parts=" << c.parts.nodal << "/" << c.parts.elems
              << " threads=" << c.threads << " iters=" << c.iters;
}

class RandomizedEquivalence : public ::testing::TestWithParam<std::uint32_t> {
protected:
    /// The serial ground truth for this seed's configuration.
    [[nodiscard]] domain reference(const random_config& c) const {
        domain d(c.o);
        lulesh::serial_driver drv;
        lulesh::run_simulation(d, drv, c.iters);
        return d;
    }

    /// Runs `drv` on this seed's configuration and compares it with serial.
    void expect_matches_serial(const random_config& c, const domain& ref,
                               lulesh::driver& drv) const {
        domain candidate(c.o);
        lulesh::run_simulation(candidate, drv, c.iters);
        EXPECT_EQ(lulesh::max_field_difference(ref, candidate), 0.0)
            << drv.name() << ": " << c;
        EXPECT_EQ(ref.dtcourant, candidate.dtcourant) << drv.name() << ": " << c;
        EXPECT_EQ(ref.dthydro, candidate.dthydro) << drv.name() << ": " << c;
    }
};

TEST_P(RandomizedEquivalence, TaskgraphMatchesSerialOnRandomConfig) {
    const random_config c(GetParam());
    const domain ref = reference(c);
    amt::runtime rt(c.threads);
    lulesh::taskgraph_driver drv(rt, c.parts);
    expect_matches_serial(c, ref, drv);
}

TEST_P(RandomizedEquivalence, ForkJoinDriversMatchSerialOnRandomConfig) {
    const random_config c(GetParam());
    const domain ref = reference(c);
    {
        ompsim::team team(c.threads);
        lulesh::parallel_for_driver drv(team);
        expect_matches_serial(c, ref, drv);
    }
    {
        amt::runtime rt(c.threads);
        lulesh::foreach_driver drv(rt);
        expect_matches_serial(c, ref, drv);
    }
#ifdef LULESH_AMT_HAVE_OPENMP
    {
        lulesh::openmp_driver drv(c.threads);
        expect_matches_serial(c, ref, drv);
    }
#endif
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedEquivalence,
                         ::testing::Range(0u, 12u));

// ---------------- EOS path equivalence across rep values ----------------

class EosPathEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EosPathEquivalence, FusedChunkMatchesLoopGranularPhases) {
    const int rep = GetParam();
    options o;
    o.size = 5;
    o.num_regions = 1;
    // Evolve a few steps to get a nontrivial EOS input state.
    domain a(o);
    domain b(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 4; ++i) {
        k::time_increment(a);
        drv.advance(a);
        k::time_increment(b);
        drv.advance(b);
    }

    const auto& list = a.regElemList(0);
    const auto count = static_cast<index_t>(list.size());
    const index_t* lp = list.data();

    // Path A: fused chunk, several chunks.
    {
        const index_t chunk = 37;
        for (index_t lo = 0; lo < count; lo += chunk) {
            const index_t hi = std::min<index_t>(lo + chunk, count);
            k::eval_eos_chunk(a, lp, lo, hi, rep);
        }
    }
    // Path B: loop-granular phases over the full region, rep times.
    {
        k::eos_scratch s;
        s.resize(static_cast<std::size_t>(count));
        const index_t* blp = b.regElemList(0).data();
        k::visit_eos_phases(rep, [&](k::eos_phase phase) {
            phase(b, blp, 0, count, s);
        });
    }

    for (std::size_t i = 0; i < a.e.size(); ++i) {
        ASSERT_EQ(a.e[i], b.e[i]) << "elem " << i;
        ASSERT_EQ(a.p[i], b.p[i]) << "elem " << i;
        ASSERT_EQ(a.q[i], b.q[i]) << "elem " << i;
        ASSERT_EQ(a.ss[i], b.ss[i]) << "elem " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Reps, EosPathEquivalence,
                         ::testing::Values(1, 2, 20));

// ---------------- chunk-order independence ----------------

TEST(ChunkOrderIndependence, ForceKernelsCommuteAcrossChunkPermutations) {
    options o;
    o.size = 6;
    o.num_regions = 3;
    domain a(o);
    domain b(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 3; ++i) {
        k::time_increment(a);
        drv.advance(a);
        k::time_increment(b);
        drv.advance(b);
    }

    const index_t ne = a.numElem();
    const index_t chunk = 17;
    std::vector<std::pair<index_t, index_t>> chunks;
    for (index_t lo = 0; lo < ne; lo += chunk) {
        chunks.emplace_back(lo, std::min<index_t>(lo + chunk, ne));
    }

    // a: natural order; b: reversed + interleaved stress/hourglass.
    for (const auto& [lo, hi] : chunks) {
        ASSERT_TRUE(k::force_stress_chunk(a, lo, hi));
    }
    for (const auto& [lo, hi] : chunks) {
        ASSERT_TRUE(k::force_hourglass_chunk(a, lo, hi));
    }
    for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
        ASSERT_TRUE(k::force_hourglass_chunk(b, it->first, it->second));
        ASSERT_TRUE(k::force_stress_chunk(b, it->first, it->second));
    }

    k::gather_forces(a, 0, a.numNode());
    k::gather_forces(b, 0, b.numNode());
    for (std::size_t i = 0; i < a.fx.size(); ++i) {
        ASSERT_EQ(a.fx[i], b.fx[i]) << "node " << i;
        ASSERT_EQ(a.fy[i], b.fy[i]);
        ASSERT_EQ(a.fz[i], b.fz[i]);
    }
}

TEST(ChunkOrderIndependence, GatherSplitsArbitrarily) {
    options o;
    o.size = 5;
    o.num_regions = 2;
    domain d(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 2; ++i) {
        k::time_increment(d);
        drv.advance(d);
    }
    ASSERT_TRUE(k::force_stress_chunk(d, 0, d.numElem()));
    ASSERT_TRUE(k::force_hourglass_chunk(d, 0, d.numElem()));

    std::vector<real_t> whole_fx;
    k::gather_forces(d, 0, d.numNode());
    whole_fx = d.fx;

    // Re-gather in tiny scrambled node ranges.
    std::fill(d.fx.begin(), d.fx.end(), -1.0);
    std::vector<index_t> starts;
    for (index_t lo = 0; lo < d.numNode(); lo += 7) starts.push_back(lo);
    std::mt19937 rng(7);
    std::shuffle(starts.begin(), starts.end(), rng);
    for (index_t lo : starts) {
        k::gather_forces(d, lo, std::min<index_t>(lo + 7, d.numNode()));
    }
    for (std::size_t i = 0; i < whole_fx.size(); ++i) {
        ASSERT_EQ(d.fx[i], whole_fx[i]) << "node " << i;
    }
}

// ---------------- conservation-style invariants ----------------

TEST(Invariants, TotalMomentumAlongFreeDirectionsStaysFinite) {
    // The Sedov blast with symmetry planes pushes material outward; momenta
    // must stay finite and velocities bounded by a sane magnitude.
    options o;
    o.size = 8;
    o.num_regions = 11;
    domain d(o);
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 80);
    real_t max_speed = 0;
    for (std::size_t i = 0; i < d.xd.size(); ++i) {
        const real_t speed = std::sqrt(d.xd[i] * d.xd[i] + d.yd[i] * d.yd[i] +
                                       d.zd[i] * d.zd[i]);
        ASSERT_TRUE(std::isfinite(speed));
        max_speed = std::max(max_speed, speed);
    }
    EXPECT_GT(max_speed, 0.0);
    EXPECT_LT(max_speed, 1e6);
}

TEST(Invariants, MassIsExactlyConserved) {
    // Lagrange formulation: element and nodal masses never change.
    options o;
    o.size = 6;
    o.num_regions = 5;
    domain d(o);
    const std::vector<real_t> elem_mass0 = d.elemMass;
    const std::vector<real_t> nodal_mass0 = d.nodalMass;
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 50);
    EXPECT_EQ(d.elemMass, elem_mass0);
    EXPECT_EQ(d.nodalMass, nodal_mass0);
}

TEST(Invariants, EnergyFieldStaysNonNegativeForSedov) {
    // With pmin = 0 and the blast as the only source, element energies stay
    // at or above the emin clamp and practically non-negative.
    options o;
    o.size = 6;
    o.num_regions = 11;
    domain d(o);
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 60);
    for (real_t e : d.e) {
        ASSERT_GE(e, d.emin);
        ASSERT_TRUE(std::isfinite(e));
    }
}

TEST(Invariants, PressureRespectsPminClamp) {
    options o;
    o.size = 6;
    domain d(o);
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 60);
    for (real_t p : d.p) {
        ASSERT_GE(p, d.pmin);
        ASSERT_TRUE(std::isfinite(p));
    }
}

}  // namespace
