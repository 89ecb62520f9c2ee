// Checkpoint/resume for PEEGA campaigns: interrupt the greedy loop at
// flip K (via the deterministic peega.interrupt failpoint), resume from
// the on-disk checkpoint, and demand the continued run be bitwise
// identical — same flip sequence, same final objective — to a run that
// was never interrupted. Exercised for both evaluation engines and at
// 1/2/8 threads (the PR-4 determinism contract makes the thread count
// irrelevant, which is exactly what resumability relies on).
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "core/peega_checkpoint.h"
#include "debug/failpoints.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "obs/json.h"
#include "obs/record.h"
#include "parallel/thread_pool.h"
#include "status/status.h"

namespace repro {
namespace {

using graph::Graph;
using linalg::Rng;

constexpr unsigned kGraphSeed = 20240502;
constexpr unsigned kAttackSeed = 11;

Graph CampaignGraph() {
  Rng rng(kGraphSeed);
  return graph::MakeCoraLike(&rng, 0.1);
}

attack::AttackOptions CampaignOptions() {
  attack::AttackOptions options;
  options.perturbation_rate = 0.05;
  return options;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = parallel::NumThreads(); }
  void TearDown() override {
    debug::DisarmAllFailpoints();
    parallel::SetNumThreads(saved_threads_);
  }

  static std::string TempCheckpoint(const std::string& tag) {
    return ::testing::TempDir() + "/peega_checkpoint_" + tag + ".json";
  }

 private:
  int saved_threads_ = 1;
};

TEST_F(CheckpointTest, ResumeIsBitwiseIdenticalToUninterruptedRun) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();

  for (const auto& engine : {core::PeegaAttack::Engine::kIncremental,
                             core::PeegaAttack::Engine::kTape}) {
    const char* engine_name =
        engine == core::PeegaAttack::Engine::kIncremental ? "incremental"
                                                          : "tape";
    // The golden, never-interrupted campaign.
    core::PeegaAttack::Options golden_options;
    golden_options.engine = engine;
    core::PeegaAttack golden_attacker(golden_options);
    Rng golden_rng(kAttackSeed);
    const attack::AttackResult golden =
        golden_attacker.Attack(g, attack_options, &golden_rng);
    ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
    ASSERT_GT(golden.flips.size(), 4u);

    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(engine_name) + " engine, " +
                   std::to_string(threads) + " threads");
      parallel::SetNumThreads(threads);
      const std::string path = TempCheckpoint(
          std::string(engine_name) + "_" + std::to_string(threads));
      std::remove(path.c_str());

      core::PeegaAttack::Options options;
      options.engine = engine;
      options.checkpoint_path = path;
      options.checkpoint_every = 1;

      // Interrupt after exactly 3 committed flips (4th iteration poll).
      debug::ArmFailpoint("peega.interrupt", "4");
      core::PeegaAttack interrupted_attacker(options);
      Rng interrupted_rng(kAttackSeed);
      const attack::AttackResult interrupted =
          interrupted_attacker.Attack(g, attack_options, &interrupted_rng);
      debug::DisarmAllFailpoints();
      ASSERT_EQ(interrupted.status.code(), status::Code::kCancelled)
          << interrupted.status.ToString();
      ASSERT_EQ(interrupted.flips.size(), 3u);
      ASSERT_TRUE(std::ifstream(path).good())
          << "no checkpoint written to " << path;

      // Resume: same options, same seed, fresh attacker. The replayed
      // prefix plus the continued loop must reproduce the golden run
      // exactly — flip for flip, bit for bit.
      core::PeegaAttack resumed_attacker(options);
      Rng resumed_rng(kAttackSeed);
      const attack::AttackResult resumed =
          resumed_attacker.Attack(g, attack_options, &resumed_rng);
      EXPECT_TRUE(resumed.status.ok()) << resumed.status.ToString();
      ASSERT_EQ(resumed.flips.size(), golden.flips.size());
      for (size_t i = 0; i < golden.flips.size(); ++i) {
        EXPECT_EQ(resumed.flips[i], golden.flips[i]) << "flip " << i;
      }
      EXPECT_EQ(resumed.final_objective, golden.final_objective);
      EXPECT_EQ(resumed.edge_modifications, golden.edge_modifications);
      EXPECT_EQ(resumed.feature_modifications,
                golden.feature_modifications);
      EXPECT_EQ(graph::ComputeEdgeDiff(golden.poisoned, resumed.poisoned)
                    .total(),
                0);
      std::remove(path.c_str());
    }
  }
}

TEST_F(CheckpointTest, StaleCheckpointIsRejectedLoudly) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("stale");
  std::remove(path.c_str());

  core::PeegaAttack::Options options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;

  debug::ArmFailpoint("peega.interrupt", "3");
  core::PeegaAttack attacker(options);
  Rng rng(kAttackSeed);
  const attack::AttackResult interrupted =
      attacker.Attack(g, attack_options, &rng);
  debug::DisarmAllFailpoints();
  ASSERT_EQ(interrupted.status.code(), status::Code::kCancelled);
  ASSERT_TRUE(std::ifstream(path).good());

  // A different campaign (different graph) must not silently adopt the
  // checkpoint: loud kInvalidInput, clean graph back, nothing attacked.
  Rng other_rng(99);
  const Graph other = graph::MakeCoraLike(&other_rng, 0.05);
  core::PeegaAttack resumed_attacker(options);
  Rng resume_rng(kAttackSeed);
  const attack::AttackResult rejected =
      resumed_attacker.Attack(other, attack_options, &resume_rng);
  EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("stale"), std::string::npos)
      << rejected.status.ToString();
  EXPECT_TRUE(rejected.flips.empty());
  EXPECT_EQ(graph::ComputeEdgeDiff(other, rejected.poisoned).total(), 0);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, StaleOptionsAreRejectedToo) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("stale_options");
  std::remove(path.c_str());

  core::PeegaAttack::Options options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;

  debug::ArmFailpoint("peega.interrupt", "3");
  core::PeegaAttack attacker(options);
  Rng rng(kAttackSeed);
  (void)attacker.Attack(g, attack_options, &rng);
  debug::DisarmAllFailpoints();
  ASSERT_TRUE(std::ifstream(path).good());

  // Same graph, different objective configuration.
  core::PeegaAttack::Options changed = options;
  changed.lambda = 0.5f;
  core::PeegaAttack changed_attacker(changed);
  Rng resume_rng(kAttackSeed);
  const attack::AttackResult rejected =
      changed_attacker.Attack(g, attack_options, &resume_rng);
  EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("stale"), std::string::npos);
  std::remove(path.c_str());
}

// PEEGA-Batch resumes like PEEGA, for both oracles. Interrupted after
// two batches, the resumed campaign must reproduce the uninterrupted one
// bit for bit; the Gumbel case also needs the restored RNG stream.
TEST_F(CheckpointTest, BatchResumeIsBitwiseIdenticalToUninterruptedRun) {
  const Graph g = CampaignGraph();
  attack::AttackOptions attack_options = CampaignOptions();
  attack_options.perturbation_rate = 0.15;  // several batches of 3
  for (const auto& engine : {core::PeegaAttack::Engine::kIncremental,
                             core::PeegaAttack::Engine::kTape}) {
    for (const float gumbel_scale : {0.0f, 0.05f}) {
      const std::string tag =
          std::string(engine == core::PeegaAttack::Engine::kIncremental
                          ? "incremental"
                          : "tape") +
          (gumbel_scale > 0.0f ? "_gumbel" : "");
      SCOPED_TRACE(tag);
      core::PeegaBatchAttack::Options batch;
      batch.batch_size = 3;
      batch.gumbel_scale = gumbel_scale;
      batch.peega.engine = engine;
      Rng golden_rng(kAttackSeed);
      const attack::AttackResult golden =
          core::PeegaBatchAttack(batch).Attack(g, attack_options,
                                               &golden_rng);
      ASSERT_TRUE(golden.status.ok()) << golden.status.ToString();
      ASSERT_GT(golden.flips.size(), 6u);

      const std::string path = TempCheckpoint("batch_" + tag);
      std::remove(path.c_str());
      batch.peega.checkpoint_path = path;
      batch.peega.checkpoint_every = 1;
      debug::ArmFailpoint("peega.interrupt", "3");
      Rng interrupted_rng(kAttackSeed);
      const attack::AttackResult interrupted =
          core::PeegaBatchAttack(batch).Attack(g, attack_options,
                                               &interrupted_rng);
      debug::DisarmAllFailpoints();
      ASSERT_EQ(interrupted.status.code(), status::Code::kCancelled)
          << interrupted.status.ToString();
      ASSERT_EQ(interrupted.flips.size(), 6u);
      ASSERT_TRUE(std::ifstream(path).good())
          << "no checkpoint written to " << path;

      Rng resumed_rng(kAttackSeed);
      const attack::AttackResult resumed =
          core::PeegaBatchAttack(batch).Attack(g, attack_options,
                                               &resumed_rng);
      EXPECT_TRUE(resumed.status.ok()) << resumed.status.ToString();
      ASSERT_EQ(resumed.flips.size(), golden.flips.size());
      for (size_t i = 0; i < golden.flips.size(); ++i) {
        EXPECT_EQ(resumed.flips[i], golden.flips[i]) << "flip " << i;
      }
      EXPECT_EQ(resumed.final_objective, golden.final_objective);
      EXPECT_EQ(graph::ComputeEdgeDiff(golden.poisoned, resumed.poisoned)
                    .total(),
                0);
      std::remove(path.c_str());
    }
  }
}

// Version 3 echoes the targets, the attacker's access and the batch
// shape: a checkpoint resumed under any other value of one of them is
// stale, and the field is named.
TEST_F(CheckpointTest, StaleTargetsAccessAndBatchShapeAreRejected) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("stale_v3");
  std::remove(path.c_str());

  core::PeegaBatchAttack::Options options;
  options.batch_size = 2;
  options.peega.checkpoint_path = path;
  options.peega.checkpoint_every = 1;
  debug::ArmFailpoint("peega.interrupt", "3");
  Rng rng(kAttackSeed);
  (void)core::PeegaBatchAttack(options).Attack(g, attack_options, &rng);
  debug::DisarmAllFailpoints();
  ASSERT_TRUE(std::ifstream(path).good());

  struct Row {
    const char* field;
    core::PeegaBatchAttack::Options options;
    attack::AttackOptions attack_options;
  };
  std::vector<Row> rows(4, Row{"", options, attack_options});
  rows[0].field = "target_nodes";
  rows[0].options.peega.target_nodes = {1, 2, 3};
  rows[1].field = "attacker_nodes";
  rows[1].attack_options.attacker_nodes = {0, 4, 5};
  rows[2].field = "batch_size";
  rows[2].options.batch_size = 3;
  rows[3].field = "gumbel_scale";
  rows[3].options.gumbel_scale = 0.1f;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.field);
    Rng resume_rng(kAttackSeed);
    const attack::AttackResult rejected =
        core::PeegaBatchAttack(row.options)
            .Attack(g, row.attack_options, &resume_rng);
    EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
        << rejected.status.ToString();
    EXPECT_NE(rejected.status.message().find(
                  std::string("stale checkpoint: ") + row.field),
              std::string::npos)
        << rejected.status.ToString();
    EXPECT_TRUE(rejected.flips.empty());
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CorruptCheckpointIsRejectedLoudly) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("corrupt");
  {
    std::ofstream out(path);
    out << "{ this is not a checkpoint ]";
  }

  core::PeegaAttack::Options options;
  options.checkpoint_path = path;
  core::PeegaAttack attacker(options);
  Rng rng(kAttackSeed);
  const attack::AttackResult rejected =
      attacker.Attack(g, attack_options, &rng);
  EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("corrupt"), std::string::npos)
      << rejected.status.ToString();
  EXPECT_TRUE(rejected.flips.empty());
  EXPECT_EQ(graph::ComputeEdgeDiff(g, rejected.poisoned).total(), 0);
  std::remove(path.c_str());
}

TEST_F(CheckpointTest, CrcMismatchIsRejectedAsIoError) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("crc");
  std::remove(path.c_str());

  core::PeegaAttack::Options options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  {
    debug::ArmFailpoint("peega.interrupt", "3");
    core::PeegaAttack attacker(options);
    Rng rng(kAttackSeed);
    const attack::AttackResult interrupted =
        attacker.Attack(g, attack_options, &rng);
    debug::DisarmAllFailpoints();
    ASSERT_EQ(interrupted.status.code(), status::Code::kCancelled);
    ASSERT_TRUE(std::ifstream(path).good());
  }

  // Single-bit-rot drill: alter one digit of the stored CRC. The file
  // still parses and passes the magic/version checks, so only the
  // checksum can catch it — and it must, as IO_ERROR (transient:
  // re-fetch the file), not INVALID_INPUT.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const size_t at = bytes.find("\"crc\":");
  ASSERT_NE(at, std::string::npos) << bytes.substr(0, 120);
  size_t digit = at + 6;
  ASSERT_LT(digit, bytes.size());
  // Last digit, nudged by one: the value always changes but stays a
  // valid uint32, so the mismatch is caught by the CRC compare itself.
  while (digit + 1 < bytes.size() &&
         bytes[digit + 1] >= '0' && bytes[digit + 1] <= '9') {
    ++digit;
  }
  bytes[digit] = bytes[digit] == '0' ? '1' : '0';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  core::PeegaAttack attacker(options);
  Rng rng(kAttackSeed);
  const attack::AttackResult rejected =
      attacker.Attack(g, attack_options, &rng);
  EXPECT_EQ(rejected.status.code(), status::Code::kIoError)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("crc mismatch"),
            std::string::npos)
      << rejected.status.ToString();
  EXPECT_TRUE(rejected.flips.empty());
  std::remove(path.c_str());
}

// A checkpoint whose seal holds can still be wrong: a replayed edge
// flip that is a self-loop would trip the engine's invariant checks,
// so load refuses it as corrupt.
TEST_F(CheckpointTest, SealedSelfLoopFlipIsRejectedAsCorrupt) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("self_loop");
  std::remove(path.c_str());
  core::PeegaAttack::Options options;
  options.mode = core::PeegaAttack::Mode::kTopologyOnly;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  debug::ArmFailpoint("peega.interrupt", "3");
  Rng rng(kAttackSeed);
  (void)core::PeegaAttack(options).Attack(g, attack_options, &rng);
  debug::DisarmAllFailpoints();

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  obs::Json doc;
  std::string error;
  ASSERT_EQ(obs::Unseal(text.str(), &doc, &error), obs::Unsealed::kOk)
      << error;
  obs::Json& flip = doc.object["flips"].array.at(0);
  flip.object["b"] = flip.object["a"];
  {
    std::ofstream out(path, std::ios::trunc);
    out << obs::Seal(doc);
  }
  Rng resume_rng(kAttackSeed);
  const attack::AttackResult rejected =
      core::PeegaAttack(options).Attack(g, attack_options, &resume_rng);
  EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
      << rejected.status.ToString();
  EXPECT_NE(rejected.status.message().find("flip 0: edge flip is a self-loop"),
            std::string::npos)
      << rejected.status.ToString();
  std::remove(path.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Rewrites the checkpoint at `path` with its rng_state replaced, through
// the save API, so the record's CRC holds and only the state is wrong.
void RewriteRngState(const std::string& path, const std::string& rng_state) {
  obs::Json echo;
  std::string error;
  ASSERT_EQ(obs::Unseal(ReadFile(path), &echo, &error), obs::Unsealed::kOk)
      << error;
  status::StatusOr<core::PeegaCheckpoint> loaded =
      core::LoadPeegaCheckpoint(path, echo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::PeegaCheckpoint checkpoint = *loaded;
  checkpoint.rng_state = rng_state;
  ASSERT_TRUE(core::SavePeegaCheckpoint(echo, checkpoint, path).ok());
}

TEST_F(CheckpointTest, MalformedRngStateIsRejectedAsCorrupt) {
  const Graph g = CampaignGraph();
  const attack::AttackOptions attack_options = CampaignOptions();
  const std::string path = TempCheckpoint("rng_state");
  std::remove(path.c_str());
  core::PeegaAttack::Options options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  debug::ArmFailpoint("peega.interrupt", "3");
  Rng rng(kAttackSeed);
  ASSERT_EQ(core::PeegaAttack(options).Attack(g, attack_options, &rng)
                .status.code(),
            status::Code::kCancelled);
  debug::DisarmAllFailpoints();

  obs::Json doc;
  std::string error;
  ASSERT_EQ(obs::Unseal(ReadFile(path), &doc, &error), obs::Unsealed::kOk)
      << error;
  const std::string valid = doc.object["rng_state"].string_value;
  ASSERT_FALSE(valid.empty());
  const std::string words = valid.substr(0, valid.rfind(' ') + 1);
  const std::string pristine = ReadFile(path);
  const struct {
    const char* name;
    std::string rng_state;
  } rows[] = {
      {"truncated state", valid.substr(0, valid.size() / 2)},
      {"index 313", words + "313"},
      {"index 999", words + "999"},
      {"trailing text", valid + " garbage"},
      {"non-digit word", "12a4 " + valid.substr(valid.find(' ') + 1)},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << pristine;
    }
    RewriteRngState(path, row.rng_state);
    Rng resume_rng(kAttackSeed);
    const attack::AttackResult rejected =
        core::PeegaAttack(options).Attack(g, attack_options, &resume_rng);
    EXPECT_EQ(rejected.status.code(), status::Code::kInvalidInput)
        << rejected.status.ToString();
    EXPECT_NE(rejected.status.message().find(
                  "corrupt checkpoint: unparsable rng_state"),
              std::string::npos)
        << rejected.status.ToString();
    EXPECT_TRUE(rejected.flips.empty());
  }
  std::remove(path.c_str());
}

// Checkpoints hold the engine's text; one written by std::mt19937_64
// (as every checkpoint before linalg::Mt19937_64 was) reads back into
// the same stream.
TEST(RngStateTest, StdEngineStateContinuesItsStreamBitwise) {
  std::mt19937_64 reference(kAttackSeed);
  for (int i = 0; i < 1000; ++i) reference();
  std::ostringstream text;
  text << reference;
  Rng rng(0);
  std::istringstream in(text.str());
  in >> rng.engine();
  ASSERT_FALSE(in.fail());
  std::ostringstream again;
  again << rng.engine();
  EXPECT_EQ(again.str(), text.str());
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(rng.engine()(), reference());
}

}  // namespace
}  // namespace repro
