// The graphguard CLI's strictness, driven through the real binary: the
// shared rejection table (op_rejections.h) on attack/defend, and every
// command's refusal of undeclared flags and numbers that do not parse
// in full. A refusal exits 1 naming the flag, and an attack refusal
// writes no output graph.
#include <sys/stat.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/random.h"
#include "op_rejections.h"

namespace repro {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/cli_test_" + tag;
}

std::string MakeGraphFile(const std::string& tag) {
  linalg::Rng rng(20240502);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.1);
  const std::string path = TempPath(tag + ".txt");
  EXPECT_TRUE(graph::SaveGraph(g, path).ok());
  return path;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

// Runs graphguard with `args`. The timeout turns a command that ignored
// a bad flag and went on serving into a failure instead of a hang.
CliRun Graphguard(const std::vector<std::string>& args) {
  std::string command = std::string("timeout 60 ") + PEEGA_GRAPHGUARD_BIN;
  for (const std::string& arg : args) command += " '" + arg + "'";
  command += " 2>&1";
  CliRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

TEST(CliTest, RejectionTableExitsOneNamingTheFlag) {
  const std::string graph_path = MakeGraphFile("rejections");
  const std::string out = TempPath("rejections_out.txt");
  for (const RejectionRow& row : RejectionTable()) {
    if (row.text == nullptr) continue;
    std::string flag = std::string("--") + row.field;
    std::replace(flag.begin(), flag.end(), '_', '-');
    std::remove(out.c_str());
    std::vector<std::string> args = {"defend", "--in", graph_path};
    if (std::string(row.op) == "attack") {
      args = {"attack", "--in", graph_path, "--out", out};
    }
    args.push_back(flag);
    args.push_back(row.text);
    const CliRun run = Graphguard(args);
    EXPECT_EQ(run.exit_code, 1) << flag << " " << row.text << "\n"
                                << run.output;
    EXPECT_NE(run.output.find("INVALID_INPUT"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find(flag), std::string::npos) << run.output;
    EXPECT_FALSE(FileExists(out)) << flag << " " << row.text;
  }
}

TEST(CliTest, CommandsRefuseUndeclaredFlagsAndHalfParsedNumbers) {
  const std::string graph_path = MakeGraphFile("strict");
  const std::string out = TempPath("strict_out.txt");
  const std::string socket = TempPath("strict.sock");
  struct Row {
    std::vector<std::string> args;
    std::string flag;  // the flag the error must name
  };
  const std::vector<Row> rows = {
      {{"generate", "--scale", "abc", "--out", out}, "--scale"},
      {{"generate", "--seed", "1x", "--out", out}, "--seed"},
      {{"generate", "--sede", "1", "--out", out}, "--sede"},
      {{"inspect", "--in", graph_path, "--clena", graph_path}, "--clena"},
      {{"serve", "--socket", socket, "--max-queue", "abc"}, "--max-queue"},
      {{"serve", "--socket", socket, "--jornal", out}, "--jornal"},
      {{"serve", "--socket", socket, "--retry-backoff-ms", "-5"},
       "retry_backoff_ms"},
      {{"attack", "--in", graph_path, "--out", out, "--deadline", "abc"},
       "--deadline"},
      {{"attack", "--in", graph_path, "--out", out, "--deadline", "-5"},
       "--deadline"},
  };
  for (const Row& row : rows) {
    std::remove(out.c_str());
    const CliRun run = Graphguard(row.args);
    EXPECT_EQ(run.exit_code, 1) << row.flag << "\n" << run.output;
    EXPECT_NE(run.output.find(row.flag), std::string::npos) << run.output;
    EXPECT_FALSE(FileExists(out)) << row.flag;
  }
}

// The attack/defend usage is printed from the field list, so it cannot
// leave out a field the commands accept.
TEST(CliTest, UsageListsEveryOpField) {
  const CliRun run = Graphguard({});
  EXPECT_EQ(run.exit_code, 2);
  for (const char* flag :
       {"--attacker ", "--rate ", "--feature-cost ", "--lambda ", "--p ",
        "--layers ", "--batch ", "--mode ", "--checkpoint ",
        "--checkpoint-every ", "--seed ", "--defender ", "--runs "}) {
    EXPECT_NE(run.output.find(flag), std::string::npos)
        << flag << "\n" << run.output;
  }
}

}  // namespace
}  // namespace repro
