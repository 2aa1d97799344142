// Crash-consistency torture test for the v3 checkpoint chain: a forked
// child rewrites a chain file the way the resilient loop's ring mirror does
// — {r4}, then {r4, r8}, then {r8, r12} — with a crash injected at a
// randomized byte offset; the parent then checks the surviving file.  The
// invariant under test is the write protocol's whole promise: whatever
// byte the writer died at, the file either does not exist yet (crash
// before the first rename) or restores bitwise to one of the three
// committed states — never to a torn in-between.

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

#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"

namespace {

using lulesh::domain;
using lulesh::options;

options small_opts() {
    options o;
    o.size = 4;  // small: 200 forked trials must stay fast
    o.num_regions = 3;
    return o;
}

std::string serialized(const domain& d) {
    std::ostringstream os;
    lulesh::save_checkpoint(d, os);
    return os.str();
}

bool file_exists(const std::string& path) {
    return std::ifstream(path).good();
}

TEST(CheckpointTorture, CrashAtAnyByteLeavesALoadableChain) {
    const std::string path = "/tmp/lulesh_chain_torture.ckpt";

    // The three committed states, at cycles 4, 8 and 12, and the files the
    // ring mirror holds after each commit.
    domain d(small_opts());
    lulesh::serial_driver drv;
    lulesh::run_simulation(d, drv, 4);
    const std::string r4 = lulesh::pack_full_record(d);
    const std::string s0 = serialized(d);
    lulesh::run_simulation(d, drv, 8);
    const std::string r8 = lulesh::pack_full_record(d);
    const std::string s1 = serialized(d);
    lulesh::run_simulation(d, drv, 12);
    const std::string r12 = lulesh::pack_full_record(d);
    const std::string s2 = serialized(d);
    const std::vector<std::vector<std::string>> files = {
        {r4}, {r4, r8}, {r8, r12}};

    long long total = 0;
    for (const auto& file : files) {
        for (const std::string& r : file) {
            total += static_cast<long long>(r.size());
        }
    }

    std::mt19937 rng(20260808);
    std::uniform_int_distribution<long long> pick(0, total + 64);

    int survived_files = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const long long crash_at = pick(rng);
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());

        const pid_t pid = fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            // Child: no gtest, no exceptions escaping — write the chain
            // with the crash seam armed and report via the exit code.
            lulesh::set_chain_crash_after_bytes(crash_at);
            try {
                for (const auto& file : files) {
                    lulesh::write_chain_file(path, file);
                }
            } catch (...) {
                ::_exit(3);
            }
            ::_exit(0);
        }

        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus)) << "child killed by signal, trial "
                                        << trial;
        const int code = WEXITSTATUS(wstatus);
        ASSERT_TRUE(code == 0 || code == 42)
            << "child exit " << code << ", trial " << trial;
        if (code == 0) {
            // Crash offset past the last byte: the full chain must be there.
            ASSERT_GE(crash_at, total);
        }

        if (!file_exists(path)) {
            // Only legal if the writer died before the first rename.
            ASSERT_EQ(code, 42) << "trial " << trial;
            ASSERT_LE(crash_at, static_cast<long long>(r4.size()))
                << "trial " << trial;
            continue;
        }
        ++survived_files;
        domain restored(small_opts());
        ASSERT_NO_THROW(lulesh::load_checkpoint_file(restored, path))
            << "trial " << trial << " crash_at " << crash_at;
        const std::string got = serialized(restored);
        ASSERT_TRUE(got == s0 || got == s1 || got == s2)
            << "trial " << trial << " crash_at " << crash_at
            << " restored to a state that was never committed (cycle "
            << restored.cycle << ")";
    }
    // Sanity on the harness itself: most offsets land after the rename.
    EXPECT_GT(survived_files, 100);

    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

}  // namespace

#else

TEST(CheckpointTorture, SkippedOnNonUnixPlatforms) { GTEST_SKIP(); }

#endif
