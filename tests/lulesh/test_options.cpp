// Tests for command-line parsing and the Table I partition-size defaults.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "lulesh/options.hpp"

namespace {

using lulesh::cli_options;
using lulesh::parse_cli;
using lulesh::partition_sizes;

cli_options parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsMatchReference) {
    const auto cli = parse({});
    EXPECT_EQ(cli.problem.size, 30);
    EXPECT_EQ(cli.problem.num_regions, 11);
    EXPECT_EQ(cli.problem.balance, 1);
    EXPECT_EQ(cli.problem.cost, 1);
    EXPECT_EQ(cli.driver, "taskgraph");
    EXPECT_EQ(cli.threads, 0u);
    EXPECT_FALSE(cli.quiet);
    EXPECT_FALSE(cli.partitions.has_value());
}

TEST(Cli, ParsesReferenceStyleFlags) {
    const auto cli = parse({"-s", "90", "-r", "16", "-i", "770", "-q"});
    EXPECT_EQ(cli.problem.size, 90);
    EXPECT_EQ(cli.problem.num_regions, 16);
    EXPECT_EQ(cli.problem.max_cycles, 770);
    EXPECT_TRUE(cli.quiet);
}

TEST(Cli, ParsesDoubleDashVariants) {
    const auto cli = parse({"--s", "45", "--r", "21", "--q"});
    EXPECT_EQ(cli.problem.size, 45);
    EXPECT_EQ(cli.problem.num_regions, 21);
    EXPECT_TRUE(cli.quiet);
}

TEST(Cli, ParsesDriverAndThreads) {
    const auto cli = parse({"-d", "parallel_for", "-t", "24"});
    EXPECT_EQ(cli.driver, "parallel_for");
    EXPECT_EQ(cli.threads, 24u);
}

TEST(Cli, ParsesPartitionPair) {
    const auto cli = parse({"-p", "4096", "2048"});
    ASSERT_TRUE(cli.partitions.has_value());
    EXPECT_EQ(cli.partitions->nodal, 4096);
    EXPECT_EQ(cli.partitions->elems, 2048);
}

TEST(Cli, ParsesBalanceAndCost) {
    const auto cli = parse({"-b", "2", "-c", "3"});
    EXPECT_EQ(cli.problem.balance, 2);
    EXPECT_EQ(cli.problem.cost, 3);
}

TEST(Cli, HelpFlagSetsShowHelp) {
    EXPECT_TRUE(parse({"-h"}).show_help);
    EXPECT_TRUE(parse({"--help"}).show_help);
}

TEST(Cli, RejectsUnknownFlag) {
    EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
}

TEST(Cli, RejectsMissingValue) {
    EXPECT_THROW(parse({"-s"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "1024"}), std::invalid_argument);
}

TEST(Cli, RejectsNonNumericValue) {
    EXPECT_THROW(parse({"-s", "abc"}), std::invalid_argument);
}

TEST(Cli, RejectsInvalidDriver) {
    EXPECT_THROW(parse({"-d", "cuda"}), std::invalid_argument);
}

TEST(Cli, RejectsOutOfRangeValues) {
    EXPECT_THROW(parse({"-s", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-r", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-i", "0"}), std::invalid_argument);
}

// A value the flag's type cannot hold is rejected, never wrapped: cast to
// int32, 4294967304 (2^32 + 8) reads as 8 and 4294967297 as 1.
TEST(Cli, RejectsValuesThatDoNotFitTheFlagsType) {
    const auto rejects = [](std::initializer_list<const char*> args,
                            const std::string& flag) {
        try {
            parse(args);
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
                << e.what();
            return;
        }
        ADD_FAILURE() << flag << " accepted a value past its type";
    };
    rejects({"-s", "4294967304"}, "-s");
    rejects({"-i", "4294967297"}, "-i");
    rejects({"-p", "4294967304", "8"}, "-p");
    rejects({"-p", "8", "4294967304"}, "-p");
    rejects({"-s", "99999999999999999999"}, "-s");
    rejects({"-r", "4294967297"}, "-r");
    rejects({"-b", "-2147483649"}, "-b");
    rejects({"-c", "4294967297"}, "-c");
    rejects({"-t", "99999999999999999999"}, "-t");
    rejects({"--checkpoint-every", "4294967297"}, "--checkpoint-every");
    rejects({"--retries", "4294967297"}, "--retries");
    rejects({"--halo-timeout", "4294967296"}, "--halo-timeout");
    rejects({"--halo-timeout=4294967296"}, "--halo-timeout");
    rejects({"--max-recoveries", "4294967297"}, "--max-recoveries");
    rejects({"--metrics=m.json", "--metrics-interval", "4294967297"},
            "--metrics-interval");
    // The type's own bounds still parse.
    EXPECT_EQ(parse({"-i", "2147483647"}).problem.max_cycles, 2147483647);
    EXPECT_EQ(parse({"-b", "-2147483648"}).problem.balance,
              std::numeric_limits<int>::min());
}

TEST(Cli, ThreadsAcceptZeroAndRejectNegatives) {
    // 0 means hardware concurrency; a negative count must fail here, before
    // any caller sizes a runtime or team with it.
    EXPECT_EQ(parse({"-t", "0"}).threads, 0u);
    EXPECT_THROW(parse({"-t", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--threads", "-4"}), std::invalid_argument);
}

TEST(Cli, CheckpointEveryAcceptsZeroAndRejectsNegatives) {
    // k = 0 is the documented entry-snapshot-only resilient mode; anything
    // negative is meaningless and must be rejected at parse time.
    EXPECT_EQ(parse({"--checkpoint-every", "0"}).checkpoint_every, 0);
    EXPECT_EQ(parse({"--checkpoint-every", "7"}).checkpoint_every, 7);
    EXPECT_THROW(parse({"--checkpoint-every", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--checkpoint-every", "-100"}), std::invalid_argument);
}

TEST(Cli, UsageDocumentsEntrySnapshotOnlyMode) {
    const std::string text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--checkpoint-every"), std::string::npos);
    EXPECT_NE(text.find("entry-snapshot-only"), std::string::npos);
}

TEST(Cli, RejectsNonPositivePartitions) {
    EXPECT_THROW(parse({"-p", "0", "64"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "64", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"-p", "-2048", "2048"}), std::invalid_argument);
}

// ---------------- --audit-graph ----------------

TEST(CliAudit, FlagEnablesAuditOnTaskGraphDrivers) {
    EXPECT_TRUE(parse({"--audit-graph"}).audit_graph);
    EXPECT_TRUE(parse({"--audit-graph", "-d", "foreach"}).audit_graph);
    EXPECT_FALSE(parse({}).audit_graph);
}

TEST(CliAudit, FlagWithGraphlessDriverIsRejected) {
    // serial and parallel_for never spawn the task graph the audit models —
    // silently auditing a graph that will not run would be a false proof.
    EXPECT_THROW(parse({"--audit-graph", "-d", "serial"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"-d", "parallel_for", "--audit-graph"}),
                 std::invalid_argument);
}

// ---------------- --graph-mode is gone ----------------

TEST(CliGraphMode, FlagIsRejectedAsUnknownOption) {
    // The taskgraph driver has one execution form, the compiled graph; the
    // flag that chose between it and a futures-built graph is gone.
    EXPECT_THROW(parse({"--graph-mode", "replay"}), std::invalid_argument);
    EXPECT_THROW(parse({"--graph-mode=build"}), std::invalid_argument);
    const std::string text = lulesh::usage_text("prog");
    EXPECT_EQ(text.find("--graph-mode"), std::string::npos);
}

TEST(CliAudit, UsageTextDocumentsBothSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--audit-graph"), std::string::npos);
}

// ---------------- --trace / --utilization-report ----------------

TEST(CliTrace, FlagsCarryPathsInBothSpellings) {
    auto cli = parse({"--trace", "a.json", "--utilization-report", "u.txt"});
    EXPECT_EQ(cli.trace_file, "a.json");
    EXPECT_EQ(cli.utilization_report_file, "u.txt");
    cli = parse({"--trace=b.json", "--utilization-report=v.json"});
    EXPECT_EQ(cli.trace_file, "b.json");
    EXPECT_EQ(cli.utilization_report_file, "v.json");
    EXPECT_TRUE(parse({}).trace_file.empty());
}

TEST(CliTrace, EmptyPathsAreRejected) {
    EXPECT_THROW(parse({"--trace="}), std::invalid_argument);
    EXPECT_THROW(parse({"--utilization-report="}), std::invalid_argument);
    EXPECT_THROW(parse({"--trace"}), std::invalid_argument);
}

TEST(CliTrace, GraphlessDriversAreRejected) {
    // serial and parallel_for never spawn scheduler tasks, so a trace of
    // them would be an empty lie — same policy as --audit-graph.
    EXPECT_THROW(parse({"--trace=t.json", "-d", "serial"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"-d", "parallel_for", "--utilization-report=u.txt"}),
                 std::invalid_argument);
    EXPECT_NO_THROW(parse({"--trace=t.json", "-d", "foreach"}));
}

TEST(CliTrace, UsageTextDocumentsAllSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--trace"), std::string::npos);
    EXPECT_NE(text.find("--utilization-report"), std::string::npos);
}

// ------------- --halo-timeout / --max-recoveries (fail-soft dist) -------------

TEST(CliHaloTimeout, ParsesBothSpellingsAndDefaultsToZero) {
    EXPECT_EQ(parse({}).halo_timeout_ms, 0);
    EXPECT_EQ(parse({"--halo-timeout", "250"}).halo_timeout_ms, 250);
    EXPECT_EQ(parse({"--halo-timeout=1500"}).halo_timeout_ms, 1500);
}

TEST(CliHaloTimeout, RejectsMalformedValues) {
    EXPECT_THROW(parse({"--halo-timeout"}),
                 std::invalid_argument);  // missing value
    EXPECT_THROW(parse({"--halo-timeout", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--halo-timeout", "soon"}), std::invalid_argument);
    EXPECT_THROW(parse({"--halo-timeout=-250"}), std::invalid_argument);
}

TEST(CliHaloTimeout, RejectedWithDriversThatNeverExchangeHalos) {
    // serial and parallel_for never perform the distributed halo exchange
    // the deadline guards — accepting the flag would silently do nothing.
    EXPECT_THROW(parse({"--halo-timeout", "250", "-d", "serial"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"-d", "parallel_for", "--halo-timeout=250"}),
                 std::invalid_argument);
    // Zero (disabled) stays compatible with every driver.
    EXPECT_EQ(parse({"--halo-timeout", "0", "-d", "serial"}).halo_timeout_ms,
              0);
    EXPECT_EQ(parse({"--halo-timeout", "250", "-d", "foreach"}).halo_timeout_ms,
              250);
}

TEST(CliMaxRecoveries, ParsesAndRejectsNegative) {
    EXPECT_EQ(parse({}).max_recoveries, 3);
    EXPECT_EQ(parse({"--max-recoveries", "0"}).max_recoveries, 0);
    EXPECT_EQ(parse({"--max-recoveries", "7"}).max_recoveries, 7);
    EXPECT_THROW(parse({"--max-recoveries", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--max-recoveries"}), std::invalid_argument);
}

TEST(CliHaloTimeout, UsageTextDocumentsAllSpellings) {
    const auto text = lulesh::usage_text("prog");
    EXPECT_NE(text.find("--halo-timeout"), std::string::npos);
    EXPECT_NE(text.find("--max-recoveries"), std::string::npos);
}

TEST(Cli, UsageTextMentionsAllFlags) {
    const auto text = lulesh::usage_text("prog");
    for (const char* flag : {"-s", "-r", "-i", "-b", "-c", "-d", "-t", "-p", "-q"}) {
        EXPECT_NE(text.find(flag), std::string::npos) << flag;
    }
}

TEST(PartitionSizes, TunedValuesMatchPaperTableI) {
    struct row {
        lulesh::index_t size, nodal, elems;
    };
    // Table I of the paper.
    const row table[] = {{45, 2048, 2048},  {60, 4096, 2048},
                         {75, 8192, 4096},  {90, 8192, 4096},
                         {120, 8192, 2048}, {150, 8192, 2048}};
    for (const auto& r : table) {
        const auto p = partition_sizes::tuned_for(r.size);
        EXPECT_EQ(p.nodal, r.nodal) << "size " << r.size;
        EXPECT_EQ(p.elems, r.elems) << "size " << r.size;
    }
}

TEST(PartitionSizes, SmallProblemsGetSmallPartitions) {
    const auto p = partition_sizes::tuned_for(10);
    EXPECT_LE(p.nodal, 512);
    EXPECT_LE(p.elems, 512);
    EXPECT_GE(p.nodal, 1);
}

}  // namespace
