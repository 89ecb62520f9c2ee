// Differential tests of the incremental PEEGA objective engine against
// the autograd-tape reference: both engines must commit the IDENTICAL
// flip sequence and report matching objectives on every configuration
// (core/peega_engine.h explains why bitwise agreement — not just
// closeness — is the design contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "parallel/thread_pool.h"

namespace repro::core {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using attack::Flip;
using graph::Graph;
using linalg::Rng;

Graph SbmGraph(uint64_t seed) {
  graph::SyntheticConfig config;
  config.name = "sbm-equiv";
  config.num_nodes = 60;
  config.num_classes = 3;
  config.feature_dim = 48;
  config.avg_degree = 4.0;
  Rng rng(seed);
  return graph::MakeSynthetic(config, &rng);
}

Graph PolblogsGraph(uint64_t seed) {
  Rng rng(seed);
  return graph::MakePolblogsLike(&rng, 0.12);
}

std::string FlipString(const std::vector<Flip>& flips) {
  std::ostringstream os;
  for (const Flip& f : flips) {
    os << (f.is_feature ? "F " : "E ") << f.a << " " << f.b << "\n";
  }
  return os.str();
}

// Runs the same attack through both engines and checks the differential
// contract: identical flip sequences, identical flip counts, identical
// poisoned graphs, and objectives within 1e-4 relative.
void ExpectEnginesAgree(const Graph& g, PeegaAttack::Options peega,
                        const AttackOptions& options, uint64_t rng_seed = 99) {
  peega.engine = PeegaAttack::Engine::kTape;
  Rng rng_tape(rng_seed);
  const AttackResult tape = PeegaAttack(peega).Attack(g, options, &rng_tape);

  peega.engine = PeegaAttack::Engine::kIncremental;
  Rng rng_inc(rng_seed);
  const AttackResult inc = PeegaAttack(peega).Attack(g, options, &rng_inc);

  EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips));
  EXPECT_EQ(tape.edge_modifications, inc.edge_modifications);
  EXPECT_EQ(tape.feature_modifications, inc.feature_modifications);
  EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
  EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
  const double scale = std::max(1.0, std::abs(tape.final_objective));
  EXPECT_NEAR(tape.final_objective, inc.final_objective, 1e-4 * scale);
  inc.poisoned.CheckInvariants();
}

void ExpectBatchEnginesAgree(const Graph& g, PeegaBatchAttack::Options batch,
                             const AttackOptions& options,
                             uint64_t rng_seed = 7) {
  batch.peega.engine = PeegaAttack::Engine::kTape;
  Rng rng_tape(rng_seed);
  const AttackResult tape =
      PeegaBatchAttack(batch).Attack(g, options, &rng_tape);

  batch.peega.engine = PeegaAttack::Engine::kIncremental;
  Rng rng_inc(rng_seed);
  const AttackResult inc =
      PeegaBatchAttack(batch).Attack(g, options, &rng_inc);

  EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips));
  EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
  EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
  const double scale = std::max(1.0, std::abs(tape.final_objective));
  EXPECT_NEAR(tape.final_objective, inc.final_objective, 1e-4 * scale);
  inc.poisoned.CheckInvariants();
}

TEST(EngineEquivalence, DefaultOptionsOnSbm) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(11), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, DefaultOptionsOnPolblogsLike) {
  AttackOptions options;
  options.perturbation_rate = 0.05;
  ExpectEnginesAgree(PolblogsGraph(12), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, NormP1) {
  PeegaAttack::Options peega;
  peega.norm_p = 1;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(13), peega, options);
}

TEST(EngineEquivalence, NormP3) {
  PeegaAttack::Options peega;
  peega.norm_p = 3;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(14), peega, options);
}

TEST(EngineEquivalence, OneLayerSurrogate) {
  PeegaAttack::Options peega;
  peega.layers = 1;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(15), peega, options);
}

TEST(EngineEquivalence, ThreeLayerSurrogate) {
  PeegaAttack::Options peega;
  peega.layers = 3;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(16), peega, options);
}

TEST(EngineEquivalence, SelfViewOnlyLambdaZero) {
  PeegaAttack::Options peega;
  peega.lambda = 0.0f;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(17), peega, options);
}

TEST(EngineEquivalence, TopologyOnlyMode) {
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kTopologyOnly;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(18), peega, options);
}

TEST(EngineEquivalence, FeaturesOnlyMode) {
  PeegaAttack::Options peega;
  peega.mode = PeegaAttack::Mode::kFeaturesOnly;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgree(SbmGraph(19), peega, options);
}

TEST(EngineEquivalence, TargetedAttack) {
  PeegaAttack::Options peega;
  peega.target_nodes = {3, 8, 21, 40};
  AttackOptions options;
  options.perturbation_rate = 0.08;
  ExpectEnginesAgree(SbmGraph(20), peega, options);
}

TEST(EngineEquivalence, FractionalFeatureCost) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  options.feature_cost = 0.5;
  ExpectEnginesAgree(SbmGraph(21), PeegaAttack::Options(), options);
}

TEST(EngineEquivalence, RestrictedAttackerNodes) {
  AttackOptions options;
  options.perturbation_rate = 0.1;
  for (int v = 0; v < 20; ++v) options.attacker_nodes.push_back(v);
  ExpectEnginesAgree(SbmGraph(22), PeegaAttack::Options(), options);
}

// The flip sequence must agree between engines at EVERY thread count —
// both engines chunk deterministically, so the sequence must also be
// the same across thread counts.
TEST(EngineEquivalence, AgreesAtOneTwoAndEightThreads) {
  const Graph g = SbmGraph(23);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  std::string first_sequence;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    PeegaAttack::Options peega;
    peega.engine = PeegaAttack::Engine::kIncremental;
    Rng rng(99);
    const AttackResult inc = PeegaAttack(peega).Attack(g, options, &rng);
    ExpectEnginesAgree(g, PeegaAttack::Options(), options);
    if (first_sequence.empty()) {
      first_sequence = FlipString(inc.flips);
    } else {
      EXPECT_EQ(first_sequence, FlipString(inc.flips))
          << "at " << threads << " threads";
    }
  }
  parallel::SetNumThreads(0);
}

// The engine's dots walk per-row stored-entry lists of H_0..H_{l-1},
// re-listed where a refresh rewrote H. These cases hold the lists to
// the tape bit for bit at 1, 2 and 8 threads, flips and final_objective,
// on feature patterns the lists must follow exactly. Returns the
// incremental result at one thread.
AttackResult ExpectEnginesAgreeBitwise(const Graph& g,
                                       PeegaAttack::Options peega,
                                       const AttackOptions& options) {
  AttackResult first;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    peega.engine = PeegaAttack::Engine::kTape;
    Rng rng_tape(99);
    const AttackResult tape = PeegaAttack(peega).Attack(g, options, &rng_tape);
    peega.engine = PeegaAttack::Engine::kIncremental;
    Rng rng_inc(99);
    AttackResult inc = PeegaAttack(peega).Attack(g, options, &rng_inc);
    EXPECT_EQ(FlipString(tape.flips), FlipString(inc.flips))
        << "at " << threads << " threads";
    EXPECT_EQ(std::bit_cast<uint64_t>(tape.final_objective),
              std::bit_cast<uint64_t>(inc.final_objective))
        << tape.final_objective << " vs " << inc.final_objective << " at "
        << threads << " threads";
    EXPECT_EQ(graph::FeatureDiffCount(tape.poisoned, inc.poisoned), 0);
    EXPECT_EQ(graph::ComputeEdgeDiff(tape.poisoned, inc.poisoned).total(), 0);
    if (threads == 1) first = std::move(inc);
  }
  parallel::SetNumThreads(0);
  return first;
}

int StoredBits(const Graph& g, int v) {
  const float* row = g.features.row(v);
  return static_cast<int>(
      std::count_if(row, row + g.features.cols(),
                    [](float x) { return x != 0.0f; }));
}

TEST(EngineEquivalence, ListsFollowAnAllZeroFeatureRow) {
  Graph g = SbmGraph(41);
  for (const int v : {0, 7}) {
    std::fill_n(g.features.row(v), g.features.cols(), 0.0f);
  }
  ASSERT_EQ(StoredBits(g, 7), 0);
  AttackOptions options;
  options.perturbation_rate = 0.1;
  ExpectEnginesAgreeBitwise(g, PeegaAttack::Options(), options);
}

// Every fourth row stores nothing, the others one bit (of two
// columns), so feature flips empty a row's list or fill an empty one;
// the test checks that this campaign does both.
TEST(EngineEquivalence, ListsFollowFlipsThatEmptyAndFillRows) {
  Graph g = SbmGraph(48);
  const int f = g.features.cols();
  for (int v = 0; v < g.num_nodes; ++v) {
    std::fill_n(g.features.row(v), f, 0.0f);
    if (v % 4 != 0) g.features(v, v % 2 == 1 ? 14 : 20) = 1.0f;
  }
  AttackOptions options;
  options.perturbation_rate = 0.3;
  const AttackResult inc =
      ExpectEnginesAgreeBitwise(g, PeegaAttack::Options(), options);
  linalg::Matrix x = g.features;
  bool emptied = false, filled = false;
  for (const Flip& flip : inc.flips) {
    if (!flip.is_feature) continue;
    const float* row = x.row(flip.a);
    const int bits = static_cast<int>(std::count_if(
        row, row + f, [](float v) { return v != 0.0f; }));
    emptied |= bits == 1 && x(flip.a, flip.b) != 0.0f;
    filled |= bits == 0;
    x(flip.a, flip.b) = x(flip.a, flip.b) != 0.0f ? 0.0f : 1.0f;
  }
  EXPECT_TRUE(emptied) << "no flip cleared a row's last stored bit:\n"
                       << FlipString(inc.flips);
  EXPECT_TRUE(filled) << "no flip set a bit in an empty row";
}

TEST(EngineEquivalence, ListsFollowIdentityFeatures) {
  const Graph g = PolblogsGraph(43);
  for (int v = 0; v < g.num_nodes; ++v) ASSERT_EQ(StoredBits(g, v), 1);
  AttackOptions options;
  options.perturbation_rate = 0.05;
  ExpectEnginesAgreeBitwise(g, PeegaAttack::Options(), options);
}

// Three layers make H_2 a right factor too.
TEST(EngineEquivalence, ListsFollowAThreeLayerSurrogate) {
  PeegaAttack::Options peega;
  peega.layers = 3;
  AttackOptions options;
  options.perturbation_rate = 0.08;
  options.feature_cost = 0.5;
  ExpectEnginesAgreeBitwise(SbmGraph(44), peega, options);
}

TEST(BatchEngineEquivalence, DeterministicTopK) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.12;
  ExpectBatchEnginesAgree(SbmGraph(24), batch, options);
}

TEST(BatchEngineEquivalence, GumbelPerturbedSameSeed) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 6;
  batch.gumbel_scale = 0.05f;
  AttackOptions options;
  options.perturbation_rate = 0.12;
  ExpectBatchEnginesAgree(SbmGraph(25), batch, options);
}

TEST(BatchEngineEquivalence, PolblogsLikeWithFractionalBeta) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.06;
  options.feature_cost = 0.5;
  ExpectBatchEnginesAgree(PolblogsGraph(26), batch, options);
}

TEST(BatchEngineEquivalence, AgreesAtOneTwoAndEightThreads) {
  const Graph g = SbmGraph(27);
  PeegaBatchAttack::Options batch;
  batch.batch_size = 8;
  AttackOptions options;
  options.perturbation_rate = 0.1;
  for (const int threads : {1, 2, 8}) {
    parallel::SetNumThreads(threads);
    ExpectBatchEnginesAgree(g, batch, options);
  }
  parallel::SetNumThreads(0);
}

TEST(BatchEngineEquivalence, TargetedBatch) {
  PeegaBatchAttack::Options batch;
  batch.batch_size = 4;
  batch.peega.target_nodes = {3, 8, 21, 40};
  AttackOptions options;
  options.perturbation_rate = 0.12;
  const Graph g = SbmGraph(28);
  ExpectBatchEnginesAgree(g, batch, options);
  // The targets reach the objective: the campaign differs from the
  // untargeted one.
  PeegaBatchAttack::Options untargeted = batch;
  untargeted.peega.target_nodes.clear();
  Rng rng_targeted(7), rng_untargeted(7);
  EXPECT_NE(
      FlipString(PeegaBatchAttack(batch).Attack(g, options, &rng_targeted)
                     .flips),
      FlipString(PeegaBatchAttack(untargeted)
                     .Attack(g, options, &rng_untargeted)
                     .flips));
}

// PEEGA is PEEGA-Batch at batch_size = 1 without Gumbel noise: the same
// flips in the same order and the same objective, whatever beta. Near
// the end of the budget only the cheaper kind may be affordable; the
// batch loop must then keep scanning that kind, as Alg. 1 does.
TEST(BatchEngineEquivalence, BatchOfOneIsPeegaFlipForFlip) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = SbmGraph(seed);
    for (const double beta : {1.0, 0.5, 0.3}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", beta " +
                   std::to_string(beta));
      AttackOptions options;
      options.perturbation_rate = 0.1;
      options.feature_cost = beta;
      PeegaBatchAttack::Options batch;
      batch.batch_size = 1;
      Rng rng_peega(7), rng_batch(7);
      const AttackResult peega =
          PeegaAttack(batch.peega).Attack(g, options, &rng_peega);
      const AttackResult batched =
          PeegaBatchAttack(batch).Attack(g, options, &rng_batch);
      EXPECT_EQ(FlipString(peega.flips), FlipString(batched.flips));
      EXPECT_EQ(peega.final_objective, batched.final_objective);
    }
  }
}

}  // namespace
}  // namespace repro::core
