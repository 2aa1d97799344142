// Crash-consistency torture test for the *cluster* checkpoint chains: a
// forked child rewrites every slab's file the way the resilient loop's
// ring mirrors do — {r4}, then {r4, r8}, then {r8, r12}, slab by slab at
// each commit — with a crash injected at a randomized cumulative byte
// offset; the parent then restores through load_cluster_chains.  The
// invariant is the consistent-cycle rule end to end: whatever byte the
// writer died at, the restart either reports an unusable chain set (crash
// before some slab's first file committed) or lands *every* slab on the
// same committed cycle — even when the crash left one slab's file a
// committed record ahead of its neighbor's.

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "dist/checkpoint_dist.hpp"
#include "dist/cluster.hpp"
#include "dist/driver_dist.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::dist::cluster;
using lulesh::dist::dist_driver;
using lulesh::dist::slab_chain_path;

constexpr index_t kSlabs = 2;

options small_opts() {
    options o;
    o.size = 4;  // small: the forked trials must stay fast
    o.num_regions = 3;
    return o;
}

std::string serialized(const domain& d) {
    std::ostringstream os;
    lulesh::save_checkpoint(d, os);
    return os.str();
}

/// One committed cluster-wide state: per-slab records plus the per-slab
/// serialized snapshots the parent compares restores against.
struct committed_state {
    int cycle = 0;
    std::vector<std::string> records;     // one per slab
    std::vector<std::string> snapshots;   // one per slab
};

TEST(DistTorture, CrashAtAnyByteRestoresAConsistentCycle) {
    const std::string path = "/tmp/lulesh_dist_chain_torture.ckpt";
    const options o = small_opts();

    // Committed cluster states at cycles 4, 8, 12, captured from a live
    // multi-slab run (the runtime lives only in this scope, so no worker
    // threads exist when the trials below fork).
    std::vector<committed_state> states(3);
    {
        cluster c(o, kSlabs);
        amt::runtime rt(2);
        dist_driver drv(rt, {48, 48});
        const int cycles[3] = {4, 8, 12};
        for (int k = 0; k < 3; ++k) {
            lulesh::dist::run_simulation(c, drv, cycles[k]);
            states[static_cast<std::size_t>(k)].cycle = cycles[k];
            for (index_t s = 0; s < kSlabs; ++s) {
                states[static_cast<std::size_t>(k)].records.push_back(
                    lulesh::pack_full_record(c.slab(s)));
                states[static_cast<std::size_t>(k)].snapshots.push_back(
                    serialized(c.slab(s)));
            }
        }
    }

    // The states each commit leaves in a slab's file, oldest record first.
    const std::vector<std::vector<std::size_t>> files = {{0}, {0, 1}, {1, 2}};
    long long total = 0;
    for (const auto& file : files) {
        for (const std::size_t k : file) {
            for (const auto& r : states[k].records) {
                total += static_cast<long long>(r.size());
            }
        }
    }

    std::mt19937 rng(20260808);
    std::uniform_int_distribution<long long> pick(0, total + 64);

    int survived_loads = 0;
    int mixed_head_restores = 0;
    for (int trial = 0; trial < 120; ++trial) {
        const long long crash_at = pick(rng);
        for (index_t s = 0; s < kSlabs; ++s) {
            std::remove(slab_chain_path(path, s).c_str());
            std::remove((slab_chain_path(path, s) + ".tmp").c_str());
        }

        const pid_t pid = fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            // Child: replay the mirrors' rewrites in the loop's commit
            // order, slab by slab, with the crash seam armed; report via the
            // exit code (42 = injected crash, set by the seam itself).
            lulesh::set_chain_crash_after_bytes(crash_at);
            try {
                for (const auto& file : files) {
                    for (index_t s = 0; s < kSlabs; ++s) {
                        std::vector<std::string> records;
                        for (const std::size_t k : file) {
                            records.push_back(states[k].records[
                                static_cast<std::size_t>(s)]);
                        }
                        lulesh::write_chain_file(slab_chain_path(path, s),
                                                 records);
                    }
                }
            } catch (...) {
                ::_exit(3);
            }
            ::_exit(0);
        }

        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus))
            << "child killed by signal, trial " << trial;
        const int code = WEXITSTATUS(wstatus);
        ASSERT_TRUE(code == 0 || code == 42)
            << "child exit " << code << ", trial " << trial;
        if (code == 0) {
            ASSERT_GE(crash_at, total);
        }

        // Detect the interesting case before restoring: files whose newest
        // records disagree (the crash landed between one slab's rewrite and
        // the next's).  Restoring a mix would desynchronize the lockstep
        // clock; the loader must pick the cycle both files hold instead.
        cluster restored(o, kSlabs);
        try {
            lulesh::dist::load_cluster_chains(restored, path);
        } catch (const lulesh::checkpoint_error&) {
            // Legal only if the writer died before every slab's first file
            // committed.
            ASSERT_EQ(code, 42) << "trial " << trial;
            continue;
        }
        ++survived_loads;

        const int cycle0 = restored.slab(0).cycle;
        const committed_state* match = nullptr;
        for (const auto& st : states) {
            if (st.cycle == cycle0) match = &st;
        }
        ASSERT_NE(match, nullptr)
            << "trial " << trial << " crash_at " << crash_at
            << " restored to uncommitted cycle " << cycle0;
        bool torn_between_slabs = false;
        for (index_t s = 0; s < kSlabs; ++s) {
            ASSERT_EQ(restored.slab(s).cycle, cycle0)
                << "trial " << trial << " crash_at " << crash_at
                << ": slabs restored to different cycles";
            ASSERT_EQ(serialized(restored.slab(s)),
                      match->snapshots[static_cast<std::size_t>(s)])
                << "trial " << trial << " crash_at " << crash_at << " slab "
                << s << " diverged from the committed cycle-" << cycle0
                << " state";
            // Count trials where this slab's file holds a newer committed
            // record than the restored cycle — proof the consistent-cycle
            // minimum (not per-slab newest) decided the target.
            std::ifstream in(slab_chain_path(path, s), std::ios::binary);
            const auto recs =
                lulesh::read_chain_records(restored.slab(s), in,
                                           slab_chain_path(path, s));
            if (!recs.empty() &&
                lulesh::chain_record_cycle(recs.back()) > cycle0) {
                torn_between_slabs = true;
            }
        }
        if (torn_between_slabs) ++mixed_head_restores;
    }
    // Harness sanity: most offsets land after every slab's first file
    // committed, and the between-slab seams are wide enough that some
    // trials actually exercise the mixed-head case.
    EXPECT_GT(survived_loads, 60);
    EXPECT_GT(mixed_head_restores, 0);

    for (index_t s = 0; s < kSlabs; ++s) {
        std::remove(slab_chain_path(path, s).c_str());
        std::remove((slab_chain_path(path, s) + ".tmp").c_str());
    }
}

}  // namespace

#else

TEST(DistTorture, SkippedOnNonUnixPlatforms) { GTEST_SKIP(); }

#endif
