#include "core/peega.h"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/greedy.h"
#include "autograd/tape.h"
#include "core/peega_batch.h"
#include "core/peega_checkpoint.h"
#include "core/peega_engine.h"
#include "debug/check.h"
#include "graph/graph.h"
#include "linalg/ops.h"
#include "obs/json.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace repro::core {

using attack::AttackOptions;
using attack::AttackResult;
using autograd::Tape;
using autograd::Var;
using linalg::Matrix;
using linalg::SparseMatrix;

PeegaAttack::PeegaAttack() : options_(Options()) {}
PeegaAttack::PeegaAttack(const Options& options) : options_(options) {}

Matrix PeegaAttack::SurrogateRepresentation(const SparseMatrix& adjacency,
                                            const Matrix& x, int layers) {
  PEEGA_CHECK_GE(layers, 1);
  const SparseMatrix a_n = graph::GcnNormalize(adjacency);
  Matrix h = x;
  for (int l = 0; l < layers; ++l) h = linalg::SpMM(a_n, h);
  return h;
}

namespace {

// Rows of the self-view sum (Eq. 5): all nodes for untargeted attacks,
// only the victims for targeted attacks.
std::vector<std::pair<int, int>> SelfPairs(
    const graph::Graph& g, const std::vector<int>& targets) {
  std::vector<std::pair<int, int>> pairs;
  if (targets.empty()) {
    pairs.reserve(g.num_nodes);
    for (int v = 0; v < g.num_nodes; ++v) pairs.emplace_back(v, v);
  } else {
    for (int v : targets) pairs.emplace_back(v, v);
  }
  return pairs;
}

// Directed neighbor pairs (v, u) for every edge of the clean topology;
// these index the global-view sum of Eq. 6. Targeted attacks keep only
// pairs whose source is a victim.
std::vector<std::pair<int, int>> NeighborPairs(
    const graph::Graph& g, const std::vector<int>& targets) {
  std::vector<char> is_target(g.num_nodes, targets.empty() ? 1 : 0);
  for (int v : targets) is_target[v] = 1;
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(g.adjacency.nnz());
  const auto& row_ptr = g.adjacency.row_ptr();
  const auto& col_idx = g.adjacency.col_idx();
  for (int v = 0; v < g.num_nodes; ++v) {
    if (!is_target[v]) continue;
    for (int64_t k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
      pairs.emplace_back(v, col_idx[k]);
    }
  }
  return pairs;
}

// The Def. 3 objective on a tape: `a` and `x` are the (dense) poisoned
// adjacency/features Vars, compared against A_n^l X of the clean graph
// over its self and neighbour pairs.
attack::TapeOracle::ObjectiveFn TapeObjective(
    const graph::Graph& clean, const PeegaAttack::Options& options) {
  return [reference = PeegaAttack::SurrogateRepresentation(
              clean.adjacency, clean.features, options.layers),
          self_pairs = SelfPairs(clean, options.target_nodes),
          neighbor_pairs = NeighborPairs(clean, options.target_nodes),
          layers = options.layers, norm_p = options.norm_p,
          lambda = options.lambda](Tape* tape, Var a, Var x) {
    Var a_n = tape->GcnNormalizeDense(a);
    Var m_hat = x;
    for (int l = 0; l < layers; ++l) m_hat = tape->MatMul(a_n, m_hat);
    Var self_view = tape->SumEdgePNorm(m_hat, reference, self_pairs, norm_p);
    if (lambda == 0.0f) return self_view;
    Var global_view =
        tape->SumEdgePNorm(m_hat, reference, neighbor_pairs, norm_p);
    return tape->Add(self_view, tape->Scale(global_view, lambda));
  };
}

std::string RngStateString(linalg::Rng* rng) {
  std::ostringstream out;
  out << rng->engine();
  return out.str();
}

// Campaign checkpointing: resume validation/replay bookkeeping and the
// periodic save. The greedy loop is deterministic, so replaying the
// recorded flips onto the clean graph reconstructs the exact
// pre-interrupt state and the continuation is bitwise-identical to an
// uninterrupted run.
class CheckpointContext {
 public:
  CheckpointContext(const PeegaBatchAttack::Options& options,
                    const graph::Graph& g,
                    const AttackOptions& attack_options)
      : path_(options.peega.checkpoint_path),
        every_(options.peega.checkpoint_every) {
    const PeegaAttack::Options& peega = options.peega;
    const auto number = [this](const char* key, double value) {
      echo_.object[key] = obs::Json::MakeNumber(value);
    };
    const auto ints = [this](const char* key, const std::vector<int>& v) {
      obs::Json array = obs::Json::MakeArray();
      for (const int i : v) array.array.push_back(obs::Json::MakeNumber(i));
      echo_.object[key] = std::move(array);
    };
    number("num_nodes", g.num_nodes);
    number("feature_dim", g.features.cols());
    number("layers", peega.layers);
    number("norm_p", peega.norm_p);
    number("lambda", peega.lambda);
    number("mode", static_cast<int>(peega.mode));
    number("engine", static_cast<int>(peega.engine));
    number("perturbation_rate", attack_options.perturbation_rate);
    number("feature_cost", attack_options.feature_cost);
    ints("target_nodes", peega.target_nodes);
    ints("attacker_nodes", attack_options.attacker_nodes);
    number("batch_size", options.batch_size);
    number("gumbel_scale", options.gumbel_scale);
  }

  bool enabled() const { return !path_.empty(); }

  // Loads the on-disk checkpoint when one exists and fills `*replay`
  // with its flips (left empty for a fresh start). A checkpoint written
  // for a different graph/option set is rejected as stale.
  status::Status Resume(std::vector<attack::Flip>* replay,
                        linalg::Rng* rng) const {
    if (!enabled()) return status::Status::Ok();
    if (!std::ifstream(path_).good()) return status::Status::Ok();
    status::StatusOr<PeegaCheckpoint> loaded =
        LoadPeegaCheckpoint(path_, echo_);
    if (!loaded.ok()) return loaded.status().WithContext("PEEGA resume");
    const PeegaCheckpoint& ck = *loaded;
    *replay = ck.flips;
    if (!ck.rng_state.empty() && rng != nullptr) {
      std::istringstream in(ck.rng_state);
      in >> rng->engine();
      if (in.fail()) {
        return status::InvalidInput(
            "corrupt checkpoint: unparsable rng_state");
      }
    }
    return status::Status::Ok();
  }

  // Saves once the committed flips cross a multiple of `checkpoint_every`
  // (for one flip per iteration: after every `checkpoint_every`-th flip).
  // `before` is the flip count at the start of the iteration, so saves
  // land on whole-iteration boundaries, where a resume can pick up.
  status::Status MaybeSave(size_t before,
                           const std::vector<attack::Flip>& flips,
                           double spent, linalg::Rng* rng) const {
    const size_t every = static_cast<size_t>(every_);
    if (!enabled() || flips.size() / every == before / every) {
      return status::Status::Ok();
    }
    PeegaCheckpoint ck;
    ck.iteration = static_cast<int>(flips.size());
    ck.spent = spent;
    if (rng != nullptr) ck.rng_state = RngStateString(rng);
    ck.flips = flips;
    return SavePeegaCheckpoint(echo_, ck, path_).WithContext(
        "PEEGA checkpoint save");
  }

 private:
  std::string path_;
  int every_;
  // Every input that shapes the greedy trajectory, as saved with the
  // checkpoint and compared key by key on resume.
  obs::Json echo_ = obs::Json::MakeObject();
};

// Rejects option values the campaign cannot run with, before any work,
// naming the field and the value.
status::Status ValidateOptions(const PeegaBatchAttack::Options& options,
                               int num_nodes) {
  const auto bad = [](const char* field, int value, const std::string& want) {
    return status::InvalidInput(std::string("invalid PEEGA option ") + field +
                                " = " + std::to_string(value) + ", must be " +
                                want);
  };
  const PeegaAttack::Options& peega = options.peega;
  if (peega.layers < 1) return bad("layers", peega.layers, ">= 1");
  if (peega.norm_p < 1) return bad("norm_p", peega.norm_p, ">= 1");
  if (options.batch_size < 1) {
    return bad("batch_size", options.batch_size, ">= 1");
  }
  if (peega.checkpoint_every < 1) {
    return bad("checkpoint_every", peega.checkpoint_every, ">= 1");
  }
  for (const int v : peega.target_nodes) {
    if (v < 0 || v >= num_nodes) {
      return bad("target_nodes", v,
                 "in [0, " + std::to_string(num_nodes) + ")");
    }
  }
  return status::Status::Ok();
}

// Entry of both attackers: validates the options, resumes from the
// checkpoint, builds the oracle the engine option names, and runs the
// campaign on it.
AttackResult RunCampaign(const PeegaBatchAttack::Options& options,
                         const graph::Graph& g,
                         const AttackOptions& attack_options,
                         linalg::Rng* rng) {
  const obs::TraceSpan attack_span("peega.attack");
  const obs::StopWatch watch;
  const PeegaAttack::Options& peega = options.peega;
  AttackResult result;
  const CheckpointContext checkpoint(options, g, attack_options);
  std::vector<attack::Flip> replay;
  result.status = ValidateOptions(options, g.num_nodes);
  if (result.status.ok()) result.status = checkpoint.Resume(&replay, rng);
  attack::GreedyConfig config;
  config.name = "PEEGA";
  config.attack_topology = peega.mode != PeegaAttack::Mode::kFeaturesOnly;
  config.attack_features = peega.mode != PeegaAttack::Mode::kTopologyOnly;
  config.batch_size = options.batch_size;
  config.gumbel_scale = options.gumbel_scale;
  const auto save = [&](size_t before, const std::vector<attack::Flip>& flips,
                        double spent) {
    return checkpoint.MaybeSave(before, flips, spent, rng);
  };
  if (!result.status.ok()) {
    // A rejected checkpoint must be loud, not silently restarted: the
    // caller decides whether to delete the stale file and rerun.
    result.poisoned = g;
  } else if (peega.engine == PeegaAttack::Engine::kIncremental) {
    PeegaEngine::Config engine_config;
    engine_config.layers = peega.layers;
    engine_config.norm_p = peega.norm_p;
    engine_config.lambda = peega.lambda;
    engine_config.attack_topology = config.attack_topology;
    engine_config.attack_features = config.attack_features;
    engine_config.target_nodes = peega.target_nodes;
    PeegaEngine engine(g, engine_config);
    attack::GreedyCampaign(config, g, attack_options, replay, save, rng,
                           &engine, &result);
  } else {
    // Black-box inputs only: adjacency and features, never labels.
    attack::TapeOracle tape(g, config, TapeObjective(g, peega));
    attack::GreedyCampaign(config, g, attack_options, replay, save, rng,
                           &tape, &result);
  }
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace

double PeegaAttack::Objective(const graph::Graph& clean,
                              const Matrix& poisoned_dense_adjacency,
                              const Matrix& poisoned_features) const {
  Tape tape;
  Var a = tape.Input(poisoned_dense_adjacency, false);
  Var x = tape.Input(poisoned_features, false);
  return TapeObjective(clean, options_)(&tape, a, x).value()(0, 0);
}

AttackResult PeegaAttack::Attack(const graph::Graph& g,
                                 const AttackOptions& attack_options,
                                 linalg::Rng* rng) {
  // PEEGA is deterministic: greedy over exact gradient scores, and the
  // parallel scans and kernels are bitwise-reproducible at any thread
  // count. `rng` is only read for checkpointing (its stream state rides
  // along so a resumed campaign continues the exact random sequence).
  PeegaBatchAttack::Options options;
  options.peega = options_;
  options.batch_size = 1;
  options.gumbel_scale = 0.0f;
  return RunCampaign(options, g, attack_options, rng);
}

PeegaBatchAttack::PeegaBatchAttack() : options_(Options()) {}
PeegaBatchAttack::PeegaBatchAttack(const Options& options)
    : options_(options) {}

AttackResult PeegaBatchAttack::Attack(const graph::Graph& g,
                                      const AttackOptions& attack_options,
                                      linalg::Rng* rng) {
  return RunCampaign(options_, g, attack_options, rng);
}

}  // namespace repro::core
