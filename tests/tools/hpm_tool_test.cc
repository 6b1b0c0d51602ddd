// End-to-end tests for the hpm_tool CLI: each subcommand is executed as
// a real process against temp files.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "io/wal.h"
#include "server/object_store.h"

namespace hpm {
namespace {

std::string ToolPath() {
  // ctest runs test binaries from the build tree; the tool sits in
  // build/tools/ relative to the build root. HPM_TOOL may override.
  if (const char* env = std::getenv("HPM_TOOL")) return env;
  return std::string(HPM_TOOL_PATH);
}

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunTool(const std::string& args) {
  const std::string command = ToolPath() + " " + args + " 2>&1";
  RunResult result;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string Tmp(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(HpmToolTest, NoArgumentsShowsUsage) {
  const RunResult r = RunTool("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(HpmToolTest, UnknownCommandShowsUsage) {
  EXPECT_EQ(RunTool("frobnicate").exit_code, 2);
}

TEST(HpmToolTest, UnknownFlagRejected) {
  const RunResult r =
      RunTool("generate --out /tmp/x.csv --bogus 1 --kind car");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown flag --bogus"), std::string::npos);
}

TEST(HpmToolTest, GenerateRequiresOut) {
  const RunResult r = RunTool("generate --kind bike");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--out"), std::string::npos);
}

TEST(HpmToolTest, GenerateRejectsBadKind) {
  const RunResult r = RunTool("generate --kind submarine --out /tmp/x.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --kind"), std::string::npos);
}

TEST(HpmToolTest, FullPipelineGenerateTrainInfoPredict) {
  const std::string csv = Tmp("tool_history.csv");
  const std::string model = Tmp("tool_model.bin");

  const RunResult gen = RunTool(
      "generate --kind car --out " + csv + " --period 60 --days 30");
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 1800 samples"), std::string::npos);

  const RunResult train =
      RunTool("train --history " + csv + " --model " + model +
          " --period 60 --eps 30 --min-pts 4 --distant 20");
  ASSERT_EQ(train.exit_code, 0) << train.output;
  EXPECT_NE(train.output.find("trained on 30 sub-trajectories"),
            std::string::npos);

  const RunResult info = RunTool("info --model " + model);
  ASSERT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("period (T):          60"),
            std::string::npos);
  EXPECT_NE(info.output.find("trajectory patterns:"), std::string::npos);

  const RunResult near = RunTool("predict --model " + model + " --history " +
                             csv + " --now 1770 --horizon 10");
  ASSERT_EQ(near.exit_code, 0) << near.output;
  EXPECT_NE(near.output.find("near-time, FQP"), std::string::npos);

  const RunResult far = RunTool("predict --model " + model + " --history " +
                            csv + " --now 1770 --horizon 25 --k 2");
  ASSERT_EQ(far.exit_code, 0) << far.output;
  EXPECT_NE(far.output.find("distant-time, BQP"), std::string::npos);
}

TEST(HpmToolTest, EvaluateComparesAgainstBaselines) {
  const std::string csv = Tmp("tool_eval.csv");
  const std::string model = Tmp("tool_eval.bin");
  ASSERT_EQ(RunTool("generate --kind car --out " + csv +
                    " --period 60 --days 40")
                .exit_code,
            0);
  ASSERT_EQ(RunTool("train --history " + csv + " --model " + model +
                    " --period 60 --distant 20 --train-subs 30")
                .exit_code,
            0);
  const RunResult r = RunTool("evaluate --model " + model + " --history " +
                              csv + " --length 25 --queries 20");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("held-out periods 30..39"), std::string::npos);
  EXPECT_NE(r.output.find("HPM"), std::string::npos);
  EXPECT_NE(r.output.find("RMF"), std::string::npos);
  EXPECT_NE(r.output.find("Linear"), std::string::npos);
}

TEST(HpmToolTest, EvaluateRequiresHeldOutPeriods) {
  const std::string csv = Tmp("tool_eval2.csv");
  const std::string model = Tmp("tool_eval2.bin");
  ASSERT_EQ(RunTool("generate --kind bike --out " + csv +
                    " --period 40 --days 10")
                .exit_code,
            0);
  ASSERT_EQ(RunTool("train --history " + csv + " --model " + model +
                    " --period 40 --distant 15")
                .exit_code,
            0);
  const RunResult r =
      RunTool("evaluate --model " + model + " --history " + csv);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("held-out"), std::string::npos);
}

TEST(HpmToolTest, TrainRejectsMissingHistoryFile) {
  const RunResult r = RunTool("train --history /nonexistent.csv --model " +
                          Tmp("m.bin"));
  EXPECT_EQ(r.exit_code, 1);
}

TEST(HpmToolTest, PredictValidatesNowAndHorizon) {
  const std::string csv = Tmp("tool_history2.csv");
  const std::string model = Tmp("tool_model2.bin");
  ASSERT_EQ(RunTool("generate --kind bike --out " + csv +
                " --period 40 --days 10")
                .exit_code,
            0);
  ASSERT_EQ(RunTool("train --history " + csv + " --model " + model +
                " --period 40 --distant 15")
                .exit_code,
            0);
  EXPECT_EQ(RunTool("predict --model " + model + " --history " + csv +
                " --horizon 5")
                .exit_code,
            1);  // Missing --now.
  EXPECT_EQ(RunTool("predict --model " + model + " --history " + csv +
                " --now 99999 --horizon 5")
                .exit_code,
            1);  // Beyond history.
  EXPECT_EQ(RunTool("predict --model " + model + " --history " + csv +
                " --now 100 --horizon 0")
                .exit_code,
            1);  // Bad horizon.
}

TEST(HpmToolTest, FaultcheckRunsOrReportsMissingHooks) {
  const std::string dir = Tmp("tool_faultcheck");
  const RunResult r = RunTool("faultcheck --seed 7 --dir " + dir);
#ifdef HPM_ENABLE_FAULTS
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("faultcheck --seed 7"), std::string::npos);
  EXPECT_NE(r.output.find("core/pattern_lookup"), std::string::npos);
#else
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("HPM_ENABLE_FAULTS"), std::string::npos);
#endif
}

TEST(HpmToolTest, StatsDumpsObservabilityJson) {
  const RunResult r =
      RunTool("stats --seed 3 --objects 4 --ops 120 --shards 2 --threads 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The sections of the dump, with the documented metric names. The
  // ladder counters live in the metrics snapshot only.
  EXPECT_NE(r.output.find("\"workload\""), std::string::npos);
  EXPECT_NE(r.output.find("\"stages\""), std::string::npos);
  EXPECT_EQ(r.output.find("\"overload\""), std::string::npos);
  EXPECT_NE(r.output.find("\"metrics\""), std::string::npos);
  EXPECT_NE(r.output.find("\"store.admitted.predict\""), std::string::npos);
  EXPECT_NE(r.output.find("\"stage.fanout_us\""), std::string::npos);
  EXPECT_NE(r.output.find("\"p99_us\""), std::string::npos);
  // Malformed-report traffic is part of the canned workload, so the
  // rejection counter must be live.
  EXPECT_NE(r.output.find("\"store.reports_rejected\""), std::string::npos);
  EXPECT_EQ(r.output.find("\"store.reports_rejected\": 0"),
            std::string::npos);
}

TEST(HpmToolTest, StatsValidatesFlags) {
  EXPECT_EQ(RunTool("stats --shards 0").exit_code, 1);
  EXPECT_EQ(RunTool("stats --ops 0").exit_code, 1);
  EXPECT_EQ(RunTool("stats --bogus 1").exit_code, 1);
}

TEST(HpmToolTest, MalformedNumericFlagsAreRejected) {
  // Each value must parse whole and fit where the tool stores it: no
  // silent truncation (2x -> 2), int narrowing (2^32 + 1 -> 1) or port
  // wrap-around (70000 -> 4464).
  for (const std::string& args :
       {std::string("stats --shards 4294967297"),
        std::string("stats --shards 2x"),
        std::string("connect --port 70000"),
        std::string("train --history h.csv --model m.bin --eps 1e999")}) {
    const RunResult r = RunTool(args);
    EXPECT_EQ(r.exit_code, 1) << args << "\n" << r.output;
    EXPECT_NE(r.output.find("error: bad value"), std::string::npos)
        << args << "\n" << r.output;
  }
}

TEST(HpmToolTest, WalVerifyAcceptsAnEmptyJournalDirectory) {
  // A directory with no segments yet is a valid (fresh) journal; a
  // health check against it must not page anyone.
  const std::string dir = Tmp("wal_verify_empty");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const RunResult r = RunTool("wal --dir " + dir + " --verify 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("empty journal is valid"), std::string::npos)
      << r.output;
}

TEST(HpmToolTest, WalVerifyRejectsAMissingJournalDirectory) {
  // A missing directory is a wrong path, not a clean journal.
  const std::string dir = Tmp("wal_verify_missing");
  std::filesystem::remove_all(dir);
  const RunResult r = RunTool("wal --dir " + dir + " --verify 1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("does not exist"), std::string::npos) << r.output;
}

TEST(HpmToolTest, ServeValidatesFlags) {
  EXPECT_EQ(RunTool("serve").exit_code, 1);  // --dir is required
  EXPECT_EQ(RunTool("serve --dir " + Tmp("serve_flags") +
                    " --replica-of not-an-addr")
                .exit_code,
            1);
  const RunResult wrapped = RunTool("serve --dir " + Tmp("serve_flags") +
                                    " --replica-of 127.0.0.1:70000");
  EXPECT_EQ(wrapped.exit_code, 1);
  EXPECT_NE(wrapped.output.find("--replica-of must be HOST:PORT"),
            std::string::npos)
      << wrapped.output;
}

TEST(HpmToolTest, ServeWithoutJournalListsNoSegments) {
  // An earlier journaled run left segments in <dir>/wal.
  const std::string dir = Tmp("serve_no_wal");
  std::filesystem::remove_all(dir);
  {
    ObjectStoreOptions options;
    options.durability.wal_dir = dir + "/wal";
    MovingObjectStore store(options);
    for (Timestamp t = 0; t < 5; ++t) {
      ASSERT_TRUE(store.ReportLocation(1, Point(1.0 * t, 2.0)).ok());
    }
  }
  ASSERT_FALSE(ListWalSegments(dir + "/wal").empty());

  // `serve --wal 0` neither replays nor journals to it, so it must not
  // advertise it to a replica either.
  const std::string port_file = dir + ".port";
  std::filesystem::remove(port_file);
  std::string tool = ToolPath();
  std::vector<std::string> args = {tool,        "serve", "--dir",
                                   dir,         "--wal", "0",
                                   "--threads", "1",     "--port-file",
                                   port_file};
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(tool.c_str(), argv.data());
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);
  int port = 0;
  for (int i = 0; i < 1500 && port == 0; ++i) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "rb")) {
      if (std::fscanf(f, "%d", &port) != 1) port = 0;
      std::fclose(f);
    }
    if (port == 0) ::usleep(10000);
  }
  const RunResult r =
      port > 0 ? RunTool("repl --port " + std::to_string(port)) : RunResult{};
  ::kill(pid, SIGTERM);
  ::waitpid(pid, nullptr, 0);
  ASSERT_GT(port, 0) << "serve never published its port";
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("generation 0, 0 journal segment(s)"),
            std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace hpm
