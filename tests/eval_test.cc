#include <sstream>

#include <gtest/gtest.h>

#include "attack/random_attack.h"
#include "defense/model_defenders.h"
#include "eval/args.h"
#include "eval/op_schema.h"
#include "eval/pipeline.h"
#include "eval/stats.h"
#include "eval/table.h"
#include "graph/generators.h"

namespace repro::eval {
namespace {

using graph::Graph;
using linalg::Rng;

TEST(StatsTest, SummarizeMeanAndStd) {
  const MeanStd s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.std, std::sqrt(1.25), 1e-12);
}

TEST(StatsTest, SummarizeEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Summarize({}).mean, 0.0);
  const MeanStd single = Summarize({0.7});
  EXPECT_DOUBLE_EQ(single.mean, 0.7);
  EXPECT_DOUBLE_EQ(single.std, 0.0);
}

TEST(StatsTest, FormatMeanStdScalesToPercent) {
  MeanStd s;
  s.mean = 0.8336;
  s.std = 0.0019;
  EXPECT_EQ(FormatMeanStd(s), "83.36±0.19");
  EXPECT_EQ(FormatMeanStd(s, 1.0, 3), "0.834±0.002");
}

TEST(TableTest, PrintsAlignedHeaderAndRows) {
  TablePrinter table({"Attacker", "GCN", "GNAT"});
  table.AddRow({"Clean", "83.36", "85.52"});
  table.AddRow({"PEEGA", "75.31", "83.12"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("Attacker"), std::string::npos);
  EXPECT_NE(text.find("PEEGA"), std::string::npos);
  EXPECT_NE(text.find("85.52"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|---"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  TablePrinter table({"A", "B"});
  table.AddRow({"only-one"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("only-one"), std::string::npos);
}

TEST(ArgsTest, ParsesCommandFlagsAndPositionals) {
  const char* argv[] = {"prog",    "attack", "--rate", "0.2",
                        "--p=3",   "extra",  "--verbose"};
  const eval::Args args = eval::Args::Parse(7, argv);
  EXPECT_EQ(args.command(), "attack");
  EXPECT_DOUBLE_EQ(*args.GetDouble("rate", 0.0), 0.2);
  EXPECT_EQ(*args.GetInt("p", 0), 3);
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_EQ(args.GetString("verbose"), "true");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "extra");
}

TEST(ArgsTest, FallbacksWhenMissing) {
  const char* argv[] = {"prog", "defend"};
  const eval::Args args = eval::Args::Parse(2, argv);
  EXPECT_EQ(args.GetString("defender", "gnat"), "gnat");
  EXPECT_EQ(*args.GetInt("runs", 3), 3);
  EXPECT_FALSE(args.Has("rate"));
}

TEST(ArgsTest, EmptyArgvIsSafe) {
  const char* argv[] = {"prog"};
  const eval::Args args = eval::Args::Parse(1, argv);
  EXPECT_TRUE(args.command().empty());
}

TEST(ArgsTest, NumbersMustParseInFull) {
  const char* argv[] = {"prog",   "generate", "--scale", "abc",
                        "--seed", "1x",       "--rate",  " 1",
                        "--p",    "nan",      "--runs",  "2.5",
                        "--big",  "3e9"};
  const eval::Args args = eval::Args::Parse(14, argv);
  for (const char* key : {"scale", "seed", "rate", "p"}) {
    const status::StatusOr<double> value = args.GetDouble(key, 0.0);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_EQ(value.status().code(), status::Code::kInvalidInput);
    EXPECT_NE(value.status().message().find(std::string("--") + key),
              std::string::npos)
        << value.status().ToString();
  }
  EXPECT_FALSE(args.GetInt("runs", 0).ok());
  EXPECT_FALSE(args.GetInt("big", 0).ok());  // beyond int
  EXPECT_DOUBLE_EQ(*args.GetDouble("big", 0.0), 3e9);
}

TEST(ArgsTest, CheckFlagsRefusesUndeclaredFlagsAndPositionals) {
  const char* argv[] = {"prog", "inspect", "--in", "g.txt", "--clena", "c"};
  const eval::Args args = eval::Args::Parse(6, argv);
  const status::Status typo = args.CheckFlags({"in", "clean"});
  EXPECT_EQ(typo.code(), status::Code::kInvalidInput);
  EXPECT_NE(typo.message().find("--clena"), std::string::npos);
  EXPECT_TRUE(args.CheckFlags({"in", "clena"}).ok());
  const char* stray[] = {"prog", "inspect", "--in", "g.txt", "extra"};
  EXPECT_FALSE(eval::Args::Parse(5, stray).CheckFlags({"in"}).ok());
}

TEST(OpSchemaTest, DefaultsValidate) {
  EXPECT_TRUE(Validate(AttackerSpec{}).ok());
  EXPECT_TRUE(Validate(EvalSpec{}).ok());
}

// The two readers walk one field list: the same values, once as a JSON
// object and once as flags, give the same spec.
TEST(OpSchemaTest, JsonAndFlagReadersAgree) {
  obs::Json object;
  std::string error;
  ASSERT_TRUE(obs::Json::Parse(
      R"({"attacker":"peega-batch","rate":0.05,"feature_cost":2,)"
      R"("lambda":0.5,"p":1,"layers":3,"batch":4,"mode":"fp",)"
      R"("checkpoint":"ck.json","checkpoint_every":5,"seed":7})",
      &object, &error))
      << error;
  AttackerSpec from_json;
  ASSERT_TRUE(ReadJson(object, &from_json).ok());
  const char* argv[] = {"prog",       "attack",
                        "--attacker", "peega-batch",
                        "--rate",     "0.05",
                        "--feature-cost", "2",
                        "--lambda",   "0.5",
                        "--p",        "1",
                        "--layers",   "3",
                        "--batch",    "4",
                        "--mode",     "fp",
                        "--checkpoint", "ck.json",
                        "--checkpoint-every", "5",
                        "--seed",     "7"};
  AttackerSpec from_flags;
  ASSERT_TRUE(ReadFlags(Args::Parse(24, argv), {}, &from_flags).ok());
  for (const AttackerSpec* spec : {&from_json, &from_flags}) {
    EXPECT_EQ(spec->name, "peega-batch");
    EXPECT_EQ(spec->rate, 0.05);
    EXPECT_EQ(spec->feature_cost, 2.0);
    EXPECT_EQ(spec->lambda, 0.5);
    EXPECT_EQ(spec->norm_p, 1);
    EXPECT_EQ(spec->layers, 3);
    EXPECT_EQ(spec->batch_size, 4);
    EXPECT_EQ(spec->mode, "fp");
    EXPECT_EQ(spec->checkpoint_path, "ck.json");
    EXPECT_EQ(spec->checkpoint_every, 5);
    EXPECT_EQ(spec->seed, 7u);
  }
}

TEST(PipelineTest, EvaluateDefenseAveragesRuns) {
  Rng rng(1);
  const Graph g = graph::MakeCoraLike(&rng, 0.25);
  defense::GcnDefender defender;
  PipelineOptions options;
  options.runs = 3;
  options.train.max_epochs = 60;
  const DefenseEvaluation eval = EvaluateDefense(&defender, g, options);
  EXPECT_GT(eval.accuracy.mean, 0.5);
  EXPECT_GE(eval.accuracy.std, 0.0);
  EXPECT_GT(eval.mean_train_seconds, 0.0);
}

TEST(PipelineTest, RunAttackDeterministicBySeed) {
  Rng rng(2);
  const Graph g = graph::MakeCoraLike(&rng, 0.25);
  attack::RandomAttack attacker;
  attack::AttackOptions options;
  options.perturbation_rate = 0.1;
  const auto a = RunAttack(&attacker, g, options, 42);
  const auto b = RunAttack(&attacker, g, options, 42);
  EXPECT_EQ(a.poisoned.EdgeList(), b.poisoned.EdgeList());
  const auto c = RunAttack(&attacker, g, options, 43);
  EXPECT_NE(a.poisoned.EdgeList(), c.poisoned.EdgeList());
}

TEST(PipelineTest, AttackThenDefendEndToEnd) {
  Rng rng(3);
  const Graph g = graph::MakeCoraLike(&rng, 0.25);
  attack::RandomAttack attacker;
  defense::GcnDefender defender;
  attack::AttackOptions attack_options;
  attack_options.perturbation_rate = 0.1;
  PipelineOptions options;
  options.runs = 2;
  options.train.max_epochs = 60;
  const DefenseEvaluation eval = EvaluateAttackDefense(
      &attacker, &defender, g, attack_options, options);
  EXPECT_GT(eval.accuracy.mean, 1.0 / g.num_classes);
}

}  // namespace
}  // namespace repro::eval
