// Failpoint sweep: arm every registered failpoint one at a time, drive a
// small end-to-end pipeline (save → load → PEEGA attack → GCN defense)
// through it, and assert the failure surfaces as a non-OK status — never
// a crash — with a valid best-so-far result. Runs under the release and
// asan-ubsan presets, so every degradation path is also sanitizer-clean.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "debug/failpoints.h"
#include "defense/model_defenders.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "status/status.h"

namespace repro {
namespace {

using graph::Graph;
using linalg::Rng;

Graph SweepGraph() {
  Rng rng(20240501);
  return graph::MakeCoraLike(&rng, 0.15);
}

struct PipelineOutcome {
  status::Status save;
  status::Status load;
  status::Status attack;
  status::Status defense;

  bool AnyFailure() const {
    return !save.ok() || !load.ok() || !attack.ok() || !defense.ok();
  }
};

// One pass through the stack, collecting every stage's status. Each
// stage degrades instead of aborting: a failed save/load falls back to
// the in-memory graph, a failed attack still yields a valid (possibly
// clean) poisoned graph, a failed defense still returns a report.
PipelineOutcome RunSmallPipeline(const Graph& g) {
  PipelineOutcome outcome;

  const std::string path =
      ::testing::TempDir() + "/failpoint_sweep_graph.txt";
  outcome.save = graph::SaveGraph(g, path);
  Graph working = g;
  status::StatusOr<Graph> loaded = graph::LoadGraph(path);
  outcome.load = loaded.ok() ? status::Status::Ok() : loaded.status();
  if (loaded.ok()) working = *std::move(loaded);
  std::remove(path.c_str());

  core::PeegaAttack attacker;
  attack::AttackOptions attack_options;
  attack_options.perturbation_rate = 0.05;
  Rng attack_rng(7);
  const attack::AttackResult result =
      attacker.Attack(working, attack_options, &attack_rng);
  outcome.attack = result.status;
  // Best-so-far contract: whatever the failure, the emitted graph must
  // be structurally valid and usable downstream.
  result.poisoned.CheckInvariants();

  defense::GcnDefender defender;
  nn::TrainOptions train;
  train.max_epochs = 12;
  Rng defense_rng(8);
  const defense::DefenseReport report =
      defender.Run(result.poisoned, train, &defense_rng);
  outcome.defense = report.status;
  return outcome;
}

TEST(FailpointSweepTest, PipelineIsCleanWithNothingArmed) {
  debug::DisarmAllFailpoints();
  const PipelineOutcome outcome = RunSmallPipeline(SweepGraph());
  EXPECT_TRUE(outcome.save.ok()) << outcome.save.ToString();
  EXPECT_TRUE(outcome.load.ok()) << outcome.load.ToString();
  EXPECT_TRUE(outcome.attack.ok()) << outcome.attack.ToString();
  EXPECT_TRUE(outcome.defense.ok()) << outcome.defense.ToString();
}

TEST(FailpointSweepTest, EveryArmedFailpointSurfacesNonOkStatus) {
  const Graph g = SweepGraph();
  for (const std::string& name : debug::RegisteredFailpoints()) {
    // serve.* sites live in the job server's IO/scheduler threads, not
    // in this save/load/attack/defend pipeline; journal_test sweeps
    // them through a real server instead.
    if (name.rfind("serve.", 0) == 0) continue;
#ifdef PEEGA_DEBUG_NUMERICS
    // linalg.spmm plants a real NaN in kernel output, which the
    // debug-numerics finite checks (correctly) abort on before the
    // graceful-degradation layer can see it.
    if (name == "linalg.spmm") continue;
#endif
    SCOPED_TRACE("failpoint " + name);
    debug::DisarmAllFailpoints();
    debug::ArmFailpoint(name, "1");
    const PipelineOutcome outcome = RunSmallPipeline(g);
    EXPECT_TRUE(outcome.AnyFailure())
        << "armed failpoint " << name
        << " never fired or its failure was swallowed; statuses: save="
        << outcome.save.ToString() << " load=" << outcome.load.ToString()
        << " attack=" << outcome.attack.ToString()
        << " defense=" << outcome.defense.ToString();
  }
  debug::DisarmAllFailpoints();
}

// The interrupt failpoint makes "stopped-early" deterministic: armed at
// hit K, PEEGA commits exactly K-1 flips, and those flips are a prefix
// of the unbounded run's sequence — the best-so-far contract in its
// sharpest form.
TEST(FailpointSweepTest, InterruptedPeegaFlipsArePrefixOfFullRun) {
  const Graph g = SweepGraph();
  attack::AttackOptions options;
  options.perturbation_rate = 0.05;

  debug::DisarmAllFailpoints();
  core::PeegaAttack attacker;
  Rng full_rng(7);
  const attack::AttackResult full = attacker.Attack(g, options, &full_rng);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  ASSERT_GT(full.flips.size(), 4u);

  for (const auto& engine : {core::PeegaAttack::Engine::kIncremental,
                             core::PeegaAttack::Engine::kTape}) {
    SCOPED_TRACE(engine == core::PeegaAttack::Engine::kIncremental
                     ? "incremental"
                     : "tape");
    debug::ArmFailpoint("peega.interrupt", "4");
    core::PeegaAttack::Options peega;
    peega.engine = engine;
    core::PeegaAttack interrupted_attacker(peega);
    Rng rng(7);
    const attack::AttackResult interrupted =
        interrupted_attacker.Attack(g, options, &rng);
    debug::DisarmAllFailpoints();

    EXPECT_EQ(interrupted.status.code(), status::Code::kCancelled)
        << interrupted.status.ToString();
    ASSERT_EQ(interrupted.flips.size(), 3u);
    for (size_t i = 0; i < interrupted.flips.size(); ++i) {
      EXPECT_EQ(interrupted.flips[i], full.flips[i]) << "flip " << i;
    }
    interrupted.poisoned.CheckInvariants();
  }
}

// PEEGA-Batch polls the same failpoint once per batch: armed at hit K it
// commits exactly K-1 whole batches, a prefix of the unbounded run.
TEST(FailpointSweepTest, InterruptedBatchFlipsArePrefixOfFullRun) {
  const Graph g = SweepGraph();
  attack::AttackOptions options;
  options.perturbation_rate = 0.1;  // several batches of 4

  for (const auto& engine : {core::PeegaAttack::Engine::kIncremental,
                             core::PeegaAttack::Engine::kTape}) {
    SCOPED_TRACE(engine == core::PeegaAttack::Engine::kIncremental
                     ? "incremental"
                     : "tape");
    debug::DisarmAllFailpoints();
    core::PeegaBatchAttack::Options batch;
    batch.batch_size = 4;
    batch.peega.engine = engine;
    Rng full_rng(7);
    const attack::AttackResult full =
        core::PeegaBatchAttack(batch).Attack(g, options, &full_rng);
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    ASSERT_GT(full.flips.size(), 8u);

    debug::ArmFailpoint("peega.interrupt", "3");
    Rng rng(7);
    const attack::AttackResult interrupted =
        core::PeegaBatchAttack(batch).Attack(g, options, &rng);
    debug::DisarmAllFailpoints();

    EXPECT_EQ(interrupted.status.code(), status::Code::kCancelled)
        << interrupted.status.ToString();
    ASSERT_EQ(interrupted.flips.size(), 8u);
    for (size_t i = 0; i < interrupted.flips.size(); ++i) {
      EXPECT_EQ(interrupted.flips[i], full.flips[i]) << "flip " << i;
    }
    interrupted.poisoned.CheckInvariants();
  }
}

// Wall-clock deadline: wherever the clock happens to stop the loop, the
// committed flips must be a prefix of the unbounded run's and the
// emitted graph must be valid. (The stop point is timing-dependent; the
// prefix property is not.)
TEST(FailpointSweepTest, DeadlineExpiredPeegaReturnsBestSoFarPrefix) {
  debug::DisarmAllFailpoints();
  const Graph g = SweepGraph();
  attack::AttackOptions options;
  options.perturbation_rate = 0.05;
  core::PeegaAttack attacker;
  Rng full_rng(7);
  const attack::AttackResult full = attacker.Attack(g, options, &full_rng);
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();

  attack::AttackOptions bounded = options;
  bounded.deadline =
      status::Deadline::AfterSeconds(full.elapsed_seconds / 2.0);
  Rng rng(7);
  const attack::AttackResult limited = attacker.Attack(g, bounded, &rng);

  ASSERT_LE(limited.flips.size(), full.flips.size());
  for (size_t i = 0; i < limited.flips.size(); ++i) {
    EXPECT_EQ(limited.flips[i], full.flips[i]) << "flip " << i;
  }
  if (limited.flips.size() < full.flips.size()) {
    EXPECT_EQ(limited.status.code(), status::Code::kDeadlineExceeded)
        << limited.status.ToString();
  }
  limited.poisoned.CheckInvariants();
}

// Cancellation observed mid-flight: a pre-cancelled deadline stops the
// loop before the first commit and still emits the clean graph intact.
TEST(FailpointSweepTest, CancelledPeegaReturnsCleanGraph) {
  debug::DisarmAllFailpoints();
  const Graph g = SweepGraph();
  attack::AttackOptions options;
  options.perturbation_rate = 0.05;
  options.deadline = status::Deadline::Cancellable();
  options.deadline.RequestCancel();
  core::PeegaAttack attacker;
  Rng rng(7);
  const attack::AttackResult result = attacker.Attack(g, options, &rng);
  EXPECT_EQ(result.status.code(), status::Code::kCancelled)
      << result.status.ToString();
  EXPECT_TRUE(result.flips.empty());
  EXPECT_EQ(graph::ComputeEdgeDiff(g, result.poisoned).total(), 0);
}

}  // namespace
}  // namespace repro
