// End-to-end tests of the optibar CLI, driven in-process: the complete
// profile -> tune -> predict/simulate/analyze workflow through the same
// entry point the binary uses.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "util/error.hpp"

namespace optibar::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& arguments) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult result;
  result.code = run_cli(arguments, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

class CliWorkflow : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("optibar_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    profile_path_ = (dir_ / "profile.txt").string();
    schedule_path_ = (dir_ / "schedule.txt").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string profile_path_;
  std::string schedule_path_;
};

TEST(Cli, NoArgumentsPrintsUsageAndFails) {
  const CliResult result = run({});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("commands:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const CliResult result = run({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("tune"), std::string::npos);
}

TEST(Cli, UnknownCommandFailsWithUsage) {
  const CliResult result = run({"frobnicate"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MachinesListsPresets) {
  const CliResult result = run({"machines"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("quad-cluster"), std::string::npos);
  EXPECT_NE(result.out.find("hex-cluster"), std::string::npos);
}

TEST(Cli, MissingRequiredOptionFails) {
  const CliResult result = run({"profile", "--machine", "quad"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--ranks"), std::string::npos);
}

TEST(Cli, UnknownOptionFails) {
  const CliResult result = run({"machines", "--bogus", "1"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("--bogus"), std::string::npos);
}

TEST_F(CliWorkflow, ProfileTunePredictSimulateAnalyzeValidate) {
  // profile
  {
    const CliResult result =
        run({"profile", "--machine", "quad", "--ranks", "24", "--out",
             profile_path_});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_TRUE(std::filesystem::exists(profile_path_));
    EXPECT_NE(result.out.find("ground truth"), std::string::npos);
  }
  // tune, saving schedule and code
  const std::string code_path = (dir_ / "barrier.hpp").string();
  {
    const CliResult result =
        run({"tune", "--profile", profile_path_, "--schedule-out",
             schedule_path_, "--code-out", code_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("predicted cost"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(schedule_path_));
    EXPECT_TRUE(std::filesystem::exists(code_path));
  }
  // predict on the stored schedule
  {
    const CliResult result = run(
        {"predict", "--profile", profile_path_, "--schedule", schedule_path_});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("predicted critical path"), std::string::npos);
  }
  // simulate it
  {
    const CliResult result =
        run({"simulate", "--profile", profile_path_, "--schedule",
             schedule_path_, "--reps", "5"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("simulated barrier time"), std::string::npos);
  }
  // analyze its link usage
  {
    const CliResult result = run({"analyze", "--schedule", schedule_path_,
                                  "--machine", "quad"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("inter-node"), std::string::npos);
  }
  // validate it
  {
    const CliResult result = run({"validate", "--schedule", schedule_path_});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("barrier (Eq. 3): yes"), std::string::npos);
  }
}

TEST_F(CliWorkflow, EstimatedProfileWithMedian) {
  const CliResult result =
      run({"profile", "--machine", "quad", "--nodes", "2", "--ranks", "10",
           "--estimate", "--noise", "0.05", "--median", "--reps", "5",
           "--out", profile_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("estimated"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(profile_path_));
}

TEST_F(CliWorkflow, HeatmapRendersBothMatrices) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "1", "--ranks",
                 "8", "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  const CliResult l_map = run({"heatmap", "--profile", profile_path_});
  ASSERT_EQ(l_map.code, 0) << l_map.err;
  EXPECT_NE(l_map.out.find("L matrix heat map"), std::string::npos);
  const CliResult o_map =
      run({"heatmap", "--profile", profile_path_, "--matrix", "O"});
  ASSERT_EQ(o_map.code, 0) << o_map.err;
  EXPECT_NE(o_map.out.find("O matrix heat map"), std::string::npos);
}

TEST_F(CliWorkflow, PredictWithNamedAlgorithm) {
  ASSERT_EQ(run({"profile", "--machine", "hex", "--ranks", "24", "--out",
                 profile_path_})
                .code,
            0);
  for (const char* algo :
       {"linear", "dissemination", "tree", "heap-tree", "kary4-tree",
        "pairwise-exchange", "radix4-dissemination"}) {
    const CliResult result =
        run({"predict", "--profile", profile_path_, "--algorithm", algo});
    EXPECT_EQ(result.code, 0) << algo << ": " << result.err;
  }
  const CliResult bad =
      run({"predict", "--profile", profile_path_, "--algorithm", "nope"});
  EXPECT_EQ(bad.code, 1);
}

TEST_F(CliWorkflow, PredictRequiresExactlyOneSource) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "8", "--out",
                 profile_path_})
                .code,
            0);
  EXPECT_EQ(run({"predict", "--profile", profile_path_}).code, 1);
}

TEST_F(CliWorkflow, CompareShowsAllAlgorithmsAndHybridWins) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "40", "--out",
                 profile_path_})
                .code,
            0);
  const CliResult result =
      run({"compare", "--profile", profile_path_, "--reps", "5"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("linear"), std::string::npos);
  EXPECT_NE(result.out.find("tree (MPI)"), std::string::npos);
  EXPECT_NE(result.out.find("hybrid (tuned)"), std::string::npos);
}

TEST_F(CliWorkflow, ValidateFlagsNonBarrier) {
  // Hand-write a one-way pattern: validate must exit 2.
  const std::string bad_path = (dir_ / "bad.txt").string();
  {
    std::ofstream os(bad_path);
    os << "optibar-schedule v1\nP 2\nstages 1\nawaited 0\nS0\n0 1\n0 0\n";
  }
  const CliResult result = run({"validate", "--schedule", bad_path});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.out.find("barrier (Eq. 3): NO"), std::string::npos);
}

TEST_F(CliWorkflow, ExitCodesDistinguishUsageIoAndStallErrors) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "6", "--out",
                 profile_path_})
                .code,
            0);
  ASSERT_EQ(run({"tune", "--profile", profile_path_, "--schedule-out",
                 schedule_path_})
                .code,
            0);
  // Usage mistakes are exit 1 (unknown option on a valid command).
  EXPECT_EQ(run({"predict", "--profile", profile_path_, "--bogus", "1"}).code,
            1);
  // Missing files are exit 3 — distinguishable from engine errors.
  {
    const CliResult missing =
        run({"predict", "--profile", (dir_ / "absent.txt").string(),
             "--schedule", schedule_path_});
    EXPECT_EQ(missing.code, 3);
    EXPECT_NE(missing.err.find("io error"), std::string::npos);
  }
  // Malformed files are exit 3 too: the parser, not the engine, failed.
  {
    const std::string corrupt_path = (dir_ / "corrupt.txt").string();
    std::ofstream os(corrupt_path);
    os << "optibar-profile v1\nP 4\nO\n1 2 3\n";  // truncated matrix
    os.close();
    const CliResult corrupt = run({"predict", "--profile", corrupt_path,
                                   "--schedule", schedule_path_});
    EXPECT_EQ(corrupt.code, 3);
    EXPECT_NE(corrupt.err.find("io error"), std::string::npos);
  }
  // The usage text documents the contract.
  const CliResult help = run({"help"});
  EXPECT_NE(help.out.find("exit codes"), std::string::npos);
  EXPECT_NE(help.out.find("--faults"), std::string::npos);
}

TEST_F(CliWorkflow, SimulateWithFaultsReportsStallsViaExitCode) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "4", "--out",
                 profile_path_})
                .code,
            0);
  ASSERT_EQ(run({"tune", "--profile", profile_path_, "--schedule-out",
                 schedule_path_})
                .code,
            0);
  // A clean fault plan (zero probability) completes: exit 0.
  {
    const CliResult clean =
        run({"simulate", "--profile", profile_path_, "--schedule",
             schedule_path_, "--faults", "seed=1;drop=*>*@*:0"});
    ASSERT_EQ(clean.code, 0) << clean.err;
    EXPECT_NE(clean.out.find("no stall"), std::string::npos);
    EXPECT_NE(clean.out.find("fault plan:"), std::string::npos);
  }
  // Dropping every signal stalls the run: exit 4 plus a report.
  {
    const CliResult stalled =
        run({"simulate", "--profile", profile_path_, "--schedule",
             schedule_path_, "--faults", "seed=1;drop=*>*@*:1",
             "--deadline-floor-ms", "15", "--retries", "0"});
    EXPECT_EQ(stalled.code, 4);
    EXPECT_NE(stalled.out.find("stall report"), std::string::npos);
    EXPECT_NE(stalled.out.find("lost signal"), std::string::npos);
  }
  // A malformed fault spec is a usage error: exit 1.
  EXPECT_EQ(run({"simulate", "--profile", profile_path_, "--schedule",
                 schedule_path_, "--faults", "bogus=1"})
                .code,
            1);
  // Resilience knobs that can never give a usable deadline are refused
  // before any rank runs: a floor above the 250 ms ceiling, a negative
  // slack.
  {
    const CliResult floor =
        run({"simulate", "--profile", profile_path_, "--schedule",
             schedule_path_, "--faults", "seed=1;drop=0>1@0:1",
             "--retries", "0", "--deadline-floor-ms", "1000"});
    EXPECT_EQ(floor.code, 1);
    EXPECT_NE(floor.err.find("deadline_ceiling"), std::string::npos)
        << floor.err;
    EXPECT_EQ(run({"simulate", "--profile", profile_path_, "--schedule",
                   schedule_path_, "--faults", "seed=1;drop=0>1@0:1",
                   "--slack", "-5"})
                  .code,
              1);
  }
}

TEST_F(CliWorkflow, TraceExportsCsvAndChrome) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "2", "--ranks",
                 "12", "--out", profile_path_})
                .code,
            0);
  const CliResult csv = run({"trace", "--profile", profile_path_,
                             "--algorithm", "tree"});
  ASSERT_EQ(csv.code, 0) << csv.err;
  EXPECT_EQ(csv.out.find("stage,src,dst"), 0u);
  const CliResult chrome =
      run({"trace", "--profile", profile_path_, "--algorithm", "tree",
           "--format", "chrome"});
  ASSERT_EQ(chrome.code, 0) << chrome.err;
  EXPECT_EQ(chrome.out.front(), '[');
  const CliResult bad = run({"trace", "--profile", profile_path_,
                             "--algorithm", "tree", "--format", "xml"});
  EXPECT_EQ(bad.code, 1);
}

TEST_F(CliWorkflow, MachineFileProfileUniformAndIrregular) {
  const std::string machine_path = (dir_ / "machine.txt").string();
  const char* tiers =
      "tier self   o 1.5e-6\n"
      "tier cache  o 2.0e-6 l 1.2e-7\n"
      "tier chip   o 2.5e-6 l 1.5e-7\n"
      "tier socket o 4.0e-6 l 6.0e-7\n"
      "tier node   o 2.5e-5 l 1.4e-5\n";
  {
    std::ofstream os(machine_path);
    os << "machine \"file rig\"\n" << tiers
       << "shape nodes 4 sockets 2 cores 4 cache 2\n";
  }
  ASSERT_EQ(run({"profile", "--machine-file", machine_path, "--ranks", "24",
                 "--out", profile_path_})
                .code,
            0);
  EXPECT_EQ(run({"compare", "--profile", profile_path_, "--reps", "3"}).code,
            0);
  {
    std::ofstream os(machine_path);
    os << tiers << "node sockets 2 cores 4 cache 2\n"
       << "node sockets 2 cores 6 cache 6\n";
  }
  const CliResult irregular =
      run({"profile", "--machine-file", machine_path, "--ranks", "20",
           "--out", profile_path_});
  ASSERT_EQ(irregular.code, 0) << irregular.err;
  EXPECT_NE(irregular.out.find("irregular"), std::string::npos);
  EXPECT_EQ(run({"tune", "--profile", profile_path_}).code, 0);
  // Both --machine and --machine-file together is an error.
  EXPECT_EQ(run({"profile", "--machine", "quad", "--machine-file",
                 machine_path, "--ranks", "8", "--out", profile_path_})
                .code,
            1);
}

TEST_F(CliWorkflow, WorkloadReportsAndRendersTimeline) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "2", "--ranks",
                 "10", "--out", profile_path_})
                .code,
            0);
  const CliResult result =
      run({"workload", "--profile", profile_path_, "--algorithm",
           "dissemination", "--episodes", "5", "--skew", "1e-4",
           "--timeline"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("mean barrier span"), std::string::npos);
  EXPECT_NE(result.out.find("total synchronization wait"),
            std::string::npos);
  EXPECT_NE(result.out.find("timeline over"), std::string::npos);
}

TEST_F(CliWorkflow, AnalyzeWithMachineFile) {
  const std::string machine_path = (dir_ / "m.txt").string();
  {
    std::ofstream os(machine_path);
    os << "tier self   o 1.5e-6\n"
          "tier cache  o 2.0e-6 l 1.2e-7\n"
          "tier chip   o 2.5e-6 l 1.5e-7\n"
          "tier socket o 4.0e-6 l 6.0e-7\n"
          "tier node   o 2.5e-5 l 1.4e-5\n"
          "node sockets 1 cores 6 cache 6\n"
          "node sockets 1 cores 6 cache 6\n";
  }
  ASSERT_EQ(run({"profile", "--machine-file", machine_path, "--ranks", "12",
                 "--out", profile_path_})
                .code,
            0);
  ASSERT_EQ(run({"tune", "--profile", profile_path_, "--schedule-out",
                 schedule_path_})
                .code,
            0);
  const CliResult result = run({"analyze", "--schedule", schedule_path_,
                                "--machine-file", machine_path});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("inter-node"), std::string::npos);
}

TEST_F(CliWorkflow, TuneWithCustomSparseness) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "1", "--ranks",
                 "8", "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  // At alpha = 0.7 a single quad node splits into its two sockets (the
  // paper's "refine the clustering" knob), visible in the cluster tree.
  const CliResult fine = run({"tune", "--profile", profile_path_,
                              "--sparseness", "0.7"});
  ASSERT_EQ(fine.code, 0) << fine.err;
  EXPECT_NE(fine.out.find("leaf [0 1 2 3]"), std::string::npos);
  const CliResult coarse = run({"tune", "--profile", profile_path_});
  ASSERT_EQ(coarse.code, 0) << coarse.err;
  EXPECT_EQ(coarse.out.find("leaf [0 1 2 3]"), std::string::npos);
}

TEST_F(CliWorkflow, TuneWithOptimizeFlag) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "24", "--out",
                 profile_path_})
                .code,
            0);
  const CliResult result =
      run({"tune", "--profile", profile_path_, "--optimize",
           "--schedule-out", schedule_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("post-optimization"), std::string::npos);
  EXPECT_EQ(run({"validate", "--schedule", schedule_path_}).code, 0);
}

TEST_F(CliWorkflow, SweepPrintsFigureStyleSeries) {
  const CliResult result = run({"sweep", "--machine", "quad", "--nodes", "2",
                                "--from", "4", "--to", "8", "--reps", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("hybrid_root"), std::string::npos);
  // 5 table rows + header + rule + blank + CSV header + 5 CSV rows.
  EXPECT_NE(result.out.find("\n4,"), std::string::npos);
  EXPECT_NE(result.out.find("\n8,"), std::string::npos);
  // Bad ranges fail loudly.
  EXPECT_EQ(run({"sweep", "--machine", "quad", "--from", "8", "--to", "4"})
                .code,
            1);
  EXPECT_EQ(run({"sweep", "--machine", "quad", "--to", "9999"}).code, 1);
}

TEST_F(CliWorkflow, SweepOverIrregularMachineFile) {
  const std::string machine_path = (dir_ / "irregular.txt").string();
  {
    std::ofstream os(machine_path);
    os << "tier self   o 1.5e-6\n"
          "tier cache  o 2.0e-6 l 1.2e-7\n"
          "tier chip   o 2.5e-6 l 1.5e-7\n"
          "tier socket o 4.0e-6 l 6.0e-7\n"
          "tier node   o 2.5e-5 l 1.4e-5\n"
          "node sockets 1 cores 4 cache 2\n"
          "node sockets 1 cores 6 cache 6\n";
  }
  const CliResult result = run({"sweep", "--machine-file", machine_path,
                                "--from", "6", "--to", "10", "--reps", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\n10,"), std::string::npos);
}

TEST_F(CliWorkflow, OverlapSweepsRatiosAgainstThePredictor) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "16", "--out",
                 profile_path_})
                .code,
            0);
  const CliResult result =
      run({"overlap", "--profile", profile_path_, "--algorithm",
           "dissemination", "--compute", "4e-4", "--ratios", "0,0.5,1",
           "--reps", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("predicted blocking barrier"),
            std::string::npos);
  EXPECT_NE(result.out.find("predicted-exposed[s]"), std::string::npos);
  // One table row per requested ratio.
  EXPECT_NE(result.out.find(" 0.00 "), std::string::npos);
  EXPECT_NE(result.out.find(" 0.50 "), std::string::npos);
  EXPECT_NE(result.out.find(" 1.00 "), std::string::npos);
}

TEST_F(CliWorkflow, OverlapValidatesItsArguments) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "8", "--out",
                 profile_path_})
                .code,
            0);
  // Ratio outside [0,1].
  EXPECT_EQ(run({"overlap", "--profile", profile_path_, "--algorithm",
                 "tree", "--ratios", "0,1.5"})
                .code,
            1);
  // Malformed ratio token.
  EXPECT_EQ(run({"overlap", "--profile", profile_path_, "--algorithm",
                 "tree", "--ratios", "0,abc"})
                .code,
            1);
  // Needs exactly one schedule source.
  EXPECT_EQ(run({"overlap", "--profile", profile_path_}).code, 1);
}

TEST_F(CliWorkflow, LibraryServesPersistsAndSoaks) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--ranks", "8", "--out",
                 profile_path_})
                .code,
            0);
  const std::string store_path = (dir_ / "plans.store").string();

  // First run: tune the world plan and leave a store behind.
  {
    const CliResult result =
        run({"library", "--profile", profile_path_, "--store", store_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("plan service over 8 ranks"), std::string::npos);
    EXPECT_NE(result.out.find("world plan:"), std::string::npos);
    EXPECT_NE(result.out.find("state healthy"), std::string::npos);
    EXPECT_NE(result.out.find("plan store saved to"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(store_path));
  }
  // Second run: warm restart from that store — no fresh tune needed.
  {
    const CliResult result =
        run({"library", "--profile", profile_path_, "--store", store_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("warm restart: 1 plan(s) loaded"),
              std::string::npos);
    EXPECT_NE(result.out.find("tunes 0"), std::string::npos);
  }
  // Soak mode exercises the concurrent client/report path end to end.
  {
    const CliResult result =
        run({"library", "--profile", profile_path_, "--auto-repair", "--soak",
             "--ops", "2000", "--clients", "2", "--subsets", "4", "--seed",
             "3"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("auto-repair on"), std::string::npos);
    EXPECT_NE(result.out.find("soak: 2000 ops"), std::string::npos);
    EXPECT_NE(result.out.find("reports:"), std::string::npos);
  }
  // A missing profile is an I/O error (exit 3), not a crash.
  EXPECT_EQ(run({"library", "--profile", (dir_ / "nope.txt").string()}).code,
            3);
}

TEST_F(CliWorkflow, SkewedMachineWorksEndToEnd) {
  ASSERT_EQ(run({"profile", "--machine", "skewed", "--ranks", "16",
                 "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  const CliResult result = run({"tune", "--profile", profile_path_,
                                "--extended", "--schedule-out",
                                schedule_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(run({"validate", "--schedule", schedule_path_}).code, 0);
}

TEST_F(CliWorkflow, ClustersReportsDecompositionAndBlockStructure) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "4", "--ranks",
                 "32", "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  const CliResult result = run({"clusters", "--profile", profile_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("4 clusters of 1 class(es)"), std::string::npos);
  EXPECT_NE(result.out.find("block-structured"), std::string::npos);
  EXPECT_NE(result.out.find("yes"), std::string::npos);
}

TEST_F(CliWorkflow, ClustersExitCodesDistinguishUsageAndIo) {
  // Missing --profile is a usage error (1); an unreadable path is IO (3).
  EXPECT_EQ(run({"clusters"}).code, 1);
  EXPECT_EQ(run({"clusters", "--profile", (dir_ / "absent.prof").string()})
                .code,
            3);
  // Garbage content is IO too.
  const std::string junk_path = (dir_ / "junk.prof").string();
  std::ofstream(junk_path) << "not a profile\n";
  EXPECT_EQ(run({"clusters", "--profile", junk_path}).code, 3);
}

TEST_F(CliWorkflow, TuneHierarchicalOnClusteredProfile) {
  ASSERT_EQ(run({"profile", "--machine", "quad", "--nodes", "4", "--ranks",
                 "32", "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  const CliResult result =
      run({"tune", "--hierarchical", "--profile", profile_path_,
           "--simulate", "--reps", "2", "--schedule-out", schedule_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("4 clusters in 1 classes"), std::string::npos);
  EXPECT_NE(result.out.find("predicted cost"), std::string::npos);
  EXPECT_NE(result.out.find("simulated barrier time"), std::string::npos);
  // The densified blocked plan passes the stored-schedule validator.
  EXPECT_EQ(run({"validate", "--schedule", schedule_path_}).code, 0);
}

TEST_F(CliWorkflow, TuneHierarchicalFallsBackOnNonBlockMachine) {
  ASSERT_EQ(run({"profile", "--machine", "skewed", "--ranks", "16",
                 "--mapping", "block", "--out", profile_path_})
                .code,
            0);
  const CliResult result =
      run({"tune", "--hierarchical", "--profile", profile_path_});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("dense fallback"), std::string::npos);
  // --schedule-out is reserved for the blocked path; on fallback it is a
  // usage error pointing at the plain tuner.
  EXPECT_EQ(run({"tune", "--hierarchical", "--profile", profile_path_,
                 "--schedule-out", schedule_path_})
                .code,
            1);
}

TEST_F(CliWorkflow, TiledProfileRoundTripsThroughCli) {
  const std::string tiled_path = (dir_ / "tiled.v4prof").string();
  {
    const CliResult result =
        run({"profile", "--machine", "quad", "--nodes", "4", "--ranks", "32",
             "--tiled", "--out", tiled_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("tiled profile"), std::string::npos);
  }
  {
    const CliResult result = run({"clusters", "--profile", tiled_path});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("(tiled v4)"), std::string::npos);
  }
  {
    const CliResult result = run({"tune", "--hierarchical", "--profile",
                                  tiled_path, "--simulate", "--reps", "2"});
    ASSERT_EQ(result.code, 0) << result.err;
    EXPECT_NE(result.out.find("simulated barrier time"), std::string::npos);
  }
  // --tiled excludes jitter/estimation/mapping knobs.
  EXPECT_EQ(run({"profile", "--machine", "quad", "--nodes", "4", "--ranks",
                 "32", "--tiled", "--estimate", "--out", tiled_path})
                .code,
            1);
  // The dense loader points v4 files at the tiled loader via exit 3.
  const CliResult dense_on_v4 = run({"tune", "--profile", tiled_path});
  EXPECT_EQ(dense_on_v4.code, 3);
  EXPECT_NE(dense_on_v4.err.find("v4"), std::string::npos);
}

}  // namespace
}  // namespace optibar::cli
