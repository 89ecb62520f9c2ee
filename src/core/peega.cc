#include "core/peega.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/common.h"
#include "autograd/tape.h"
#include "core/peega_batch.h"
#include "core/peega_checkpoint.h"
#include "core/peega_engine.h"
#include "graph/graph.h"
#include "debug/check.h"
#include "debug/failpoints.h"
#include "linalg/ops.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace repro::core {

using attack::AccessControl;
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

// Forward pass of the PEEGA objective on a tape. `a` and `x` are the
// (dense) poisoned adjacency/features Vars; `reference` = A_n^l X of the
// clean graph.
Var ObjectiveOnTape(Tape* tape, Var a, Var x, const Matrix& reference,
                    const std::vector<std::pair<int, int>>& self_pairs,
                    const std::vector<std::pair<int, int>>& neighbor_pairs,
                    int layers, int norm_p, float lambda) {
  Var a_n = tape->GcnNormalizeDense(a);
  Var m_hat = x;
  for (int l = 0; l < layers; ++l) m_hat = tape->MatMul(a_n, m_hat);
  Var self_view = tape->SumEdgePNorm(m_hat, reference, self_pairs, norm_p);
  if (lambda == 0.0f) return self_view;
  Var global_view =
      tape->SumEdgePNorm(m_hat, reference, neighbor_pairs, norm_p);
  return tape->Add(self_view, tape->Scale(global_view, lambda));
}

// Alg. 1's score oracle on the autograd tape: every RefreshScores
// re-derives the objective's gradients through a fresh tape, O(N²F) per
// pass. It is the reference PeegaEngine is held to flip for flip
// (tests/engine_equiv_test.cc), and has the engine's member names so
// GreedyCampaign runs on either.
class TapeOracle {
 public:
  TapeOracle(const graph::Graph& g, const PeegaAttack::Options& options)
      : options_(options),
        clean_adjacency_(g.adjacency),
        // Black-box inputs only: adjacency and features, never labels.
        reference_(PeegaAttack::SurrogateRepresentation(
            g.adjacency, g.features, options.layers)),
        self_pairs_(SelfPairs(g, options.target_nodes)),
        neighbor_pairs_(NeighborPairs(g, options.target_nodes)),
        dense_(g.adjacency.ToDense()),
        features_(g.features),
        all_rows_(static_cast<size_t>(g.num_nodes)) {
    std::iota(all_rows_.begin(), all_rows_.end(), 0);
  }

  // Mirrors the engine's latched-fault contract: NaN gradients would make
  // every scan comparison false and the loop would end silently OK.
  status::Status RefreshScores() {
    if (!status_.ok()) return status_;
    const bool topology = options_.mode != PeegaAttack::Mode::kFeaturesOnly;
    const bool features = options_.mode != PeegaAttack::Mode::kTopologyOnly;
    tape_.emplace();
    Var a = tape_->Input(dense_, /*requires_grad=*/topology);
    Var x = tape_->Input(features_, /*requires_grad=*/features);
    Var obj = ObjectiveOnTape(&*tape_, a, x, reference_, self_pairs_,
                              neighbor_pairs_, options_.layers,
                              options_.norm_p, options_.lambda);
    tape_->Backward(obj);
    grad_a_ = topology ? &a.grad() : nullptr;
    grad_x_ = features ? &x.grad() : nullptr;
    objective_ = obj.value()(0, 0);
    if (!std::isfinite(objective_)) {
      status_ = status::NumericFault("non-finite PEEGA objective on the tape");
    }
    return status_;
  }

  float EdgeScore(int u, int v) const {
    const float direction = 1.0f - 2.0f * dense_(u, v);  // +1 add, -1 del
    return direction * ((*grad_a_)(u, v) + (*grad_a_)(v, u));
  }
  float FeatureScore(int v, int j) const {
    const float direction = 1.0f - 2.0f * features_(v, j);
    return direction * (*grad_x_)(v, j);
  }

  // Every pass re-derives every gradient: every row counts as changed.
  const std::vector<int>& changed_feature_rows() const { return all_rows_; }
  const std::vector<int>& changed_edge_rows() const { return all_rows_; }

  void FlipEdge(int u, int v) {
    attack::FlipEdge(&dense_, u, v);
    edge_flips_.emplace_back(u, v);
  }
  void FlipFeature(int v, int j) { attack::FlipFeature(&features_, v, j); }

  double Objective() const { return objective_; }
  // Toggles the committed edge flips on the clean CSR rather than
  // rescanning the N x N tape matrix; bitwise-identical to
  // DenseToAdjacency(dense) (tests/scale_test.cc holds both to that).
  SparseMatrix PoisonedAdjacency() const {
    return graph::WithFlips(clean_adjacency_, edge_flips_);
  }
  const Matrix& features() const { return features_; }

 private:
  const PeegaAttack::Options& options_;
  const SparseMatrix& clean_adjacency_;
  const Matrix reference_;
  const std::vector<std::pair<int, int>> self_pairs_;
  const std::vector<std::pair<int, int>> neighbor_pairs_;
  Matrix dense_;
  Matrix features_;
  std::vector<std::pair<int, int>> edge_flips_;
  std::vector<int> all_rows_;
  std::optional<Tape> tape_;  // the latest pass; owns the gradients below
  const Matrix* grad_a_ = nullptr;
  const Matrix* grad_x_ = nullptr;
  double objective_ = 0.0;
  status::Status status_;
};

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

// Deadline / cancellation / injected-interrupt poll, once per greedy
// iteration; returns the status that should stop the loop, OK to keep
// going.
status::Status CheckInterrupt(const status::Deadline& deadline,
                              size_t committed_flips) {
  status::Status status = deadline.Check(
      "PEEGA greedy iteration " + std::to_string(committed_flips));
  if (status.ok() && PEEGA_FAILPOINT("peega.interrupt")) {
    status = status::Cancelled("injected failpoint peega.interrupt");
  }
  return status;
}

float GumbelNoise(float scale, linalg::Rng* rng) {
  const double u = std::max(1e-12, rng->Uniform(0.0, 1.0));
  return static_cast<float>(-scale * std::log(-std::log(u)));
}

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

// The greedy loop of Alg. 1 and of its top-k extension, over a score
// oracle: PeegaEngine's cached closed-form gradients, or TapeOracle's
// autograd reference. Each iteration refreshes the scores, scans the
// flip kinds the remaining budget can afford, ranks the candidates under
// attack::RanksBefore, and commits the best `batch_size` in rank order,
// skipping any that the batch's earlier flips made unaffordable. With
// batch_size = 1 and no Gumbel noise this is Alg. 1 exactly: edges win
// ties, and within one kind the lowest (a, b) wins.
//
// One scan cache per flip kind lives for the whole campaign, told after
// each refresh which rows the oracle changed. The freeze sets change
// only at flipped rows, and the oracles always count those as changed.
// Debug-numerics builds hold every cached scan to the full one.
//
// A template rather than a virtual interface: the scan calls the oracle
// once per candidate, O(N²) times per iteration, and must inline it.
template <typename Oracle>
void GreedyCampaign(const PeegaBatchAttack::Options& options,
                    const graph::Graph& g,
                    const AttackOptions& attack_options, linalg::Rng* rng,
                    Oracle* oracle, AttackResult* result) {
  const int budget = attack::ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const bool attack_topology =
      options.peega.mode != PeegaAttack::Mode::kFeaturesOnly;
  const bool attack_features =
      options.peega.mode != PeegaAttack::Mode::kTopologyOnly;
  const float beta = static_cast<float>(attack_options.feature_cost);
  // Every candidate survives the scan when Gumbel noise is drawn over the
  // whole list; otherwise each kind contributes its best batch_size.
  const int keep = options.gumbel_scale > 0.0f ? 0 : options.batch_size;

  // Freeze once-flipped entries: without this the greedy loop oscillates
  // on one edge after the objective's local optimum is reached.
  attack::FlipSet edge_done(g.num_nodes);
  attack::FlipSet feature_done(g.features.cols());
  // A cache only for each kind the mode attacks.
  std::optional<attack::ScanCache</*is_feature=*/false>> edge_scan;
  std::optional<attack::ScanCache</*is_feature=*/true>> feature_scan;
  if (attack_topology) edge_scan.emplace(g.num_nodes, g.num_nodes, keep);
  if (attack_features) {
    feature_scan.emplace(g.num_nodes, g.features.cols(), keep);
  }
  double spent = 0.0;
  const auto commit = [&](const attack::Flip& flip) {
    if (flip.is_feature) {
      oracle->FlipFeature(flip.a, flip.b);
      feature_done.Insert(flip.a, flip.b);
      ++result->feature_modifications;
      spent += beta;
    } else {
      oracle->FlipEdge(flip.a, flip.b);
      edge_done.InsertSymmetric(flip.a, flip.b);
      ++result->edge_modifications;
      spent += 1.0;
    }
    result->flips.push_back(flip);
  };

  const CheckpointContext checkpoint(options, g, attack_options);
  std::vector<attack::Flip> replay;
  result->status = checkpoint.Resume(&replay, rng);
  if (!result->status.ok()) {
    // A rejected checkpoint must be loud, not silently restarted: the
    // caller decides whether to delete the stale file and rerun.
    result->poisoned = g;
    return;
  }
  for (const attack::Flip& flip : replay) commit(flip);

  // Alg. 1 phase instrumentation: score = gradient refresh, scan =
  // candidate search, flip = commit. These are the rows of the paper's
  // Tab. VII cost breakdown.
  static obs::Counter* const iterations = obs::GetCounter("peega.iterations");
  static obs::Counter* const edge_flips = obs::GetCounter("peega.edge_flips");
  static obs::Counter* const feature_flips =
      obs::GetCounter("peega.feature_flips");

  while (true) {
    const bool can_edge = attack_topology && spent + 1.0 <= budget + 1e-9;
    const bool can_feature =
        attack_features && beta > 0.0f && spent + beta <= budget + 1e-9;
    if (!can_edge && !can_feature) break;
    result->status = CheckInterrupt(attack_options.deadline,
                                    result->flips.size());
    if (!result->status.ok()) break;  // best-so-far: flips are a prefix

    const obs::TraceSpan iteration_span("peega.iteration");
    iterations->Add(1);
    {
      const obs::TraceSpan score_span("peega.score");
      result->status = oracle->RefreshScores();
    }
    if (!result->status.ok()) {
      result->status = result->status.WithContext("PEEGA score refresh");
      break;
    }
    if (edge_scan) edge_scan->Invalidate(oracle->changed_edge_rows());
    if (feature_scan) {
      feature_scan->Invalidate(oracle->changed_feature_rows());
    }

    std::vector<attack::FlipCandidate> candidates;
    {
      const obs::TraceSpan scan_span("peega.scan");
      if (can_edge) {
        candidates = edge_scan->Scan(
            access, &edge_done,
            [&](int u, int v) { return oracle->EdgeScore(u, v); });
      }
      if (can_feature) {
        // Normalized feature score S_f / beta (Sec. V-D1).
        const std::vector<attack::FlipCandidate> features = feature_scan->Scan(
            access, &feature_done,
            [&](int v, int j) { return oracle->FeatureScore(v, j) / beta; });
        candidates.insert(candidates.end(), features.begin(), features.end());
      }
    }
    if (candidates.empty()) break;

    const obs::TraceSpan flip_span("peega.flip");
    if (options.gumbel_scale > 0.0f) {
      // Drawn on the calling thread in candidate-list order: the same RNG
      // sequence as a serial scan, so seeded runs reproduce at any
      // thread count.
      for (attack::FlipCandidate& c : candidates) {
        c.score += GumbelNoise(options.gumbel_scale, rng);
      }
    }
    attack::KeepTop(&candidates, options.batch_size);
    const size_t before = result->flips.size();
    for (const attack::FlipCandidate& c : candidates) {
      if (spent + (c.flip.is_feature ? beta : 1.0) > budget + 1e-9) continue;
      commit(c.flip);
      (c.flip.is_feature ? feature_flips : edge_flips)->Add(1);
    }
    const status::Status saved =
        checkpoint.MaybeSave(before, result->flips, spent, rng);
    if (!saved.ok()) {
      result->status = saved;
      break;
    }
  }

  // Bring the scores up to date with the final flip for the objective.
  // After a numeric fault the refresh stays latched; the committed graph
  // state is still valid but the objective is not, so it is left at 0
  // for the degraded result.
  const status::Status final_refresh = oracle->RefreshScores();
  if (final_refresh.ok()) {
    result->final_objective = oracle->Objective();
  } else if (result->status.ok()) {
    result->status = final_refresh.WithContext("PEEGA final refresh");
  }
  result->poisoned = g.WithAdjacency(oracle->PoisonedAdjacency())
                         .WithFeatures(oracle->features());
}

// Entry of both attackers: validates the options, builds the oracle the
// engine option names, and runs the campaign on it.
AttackResult RunCampaign(const PeegaBatchAttack::Options& options,
                         const graph::Graph& g,
                         const AttackOptions& attack_options,
                         linalg::Rng* rng) {
  const obs::TraceSpan attack_span("peega.attack");
  const obs::StopWatch watch;
  AttackResult result;
  result.status = ValidateOptions(options, g.num_nodes);
  if (!result.status.ok()) {
    result.poisoned = g;
  } else if (options.peega.engine == PeegaAttack::Engine::kIncremental) {
    const PeegaAttack::Options& peega = options.peega;
    PeegaEngine::Config config;
    config.layers = peega.layers;
    config.norm_p = peega.norm_p;
    config.lambda = peega.lambda;
    config.attack_topology = peega.mode != PeegaAttack::Mode::kFeaturesOnly;
    config.attack_features = peega.mode != PeegaAttack::Mode::kTopologyOnly;
    config.target_nodes = peega.target_nodes;
    PeegaEngine engine(g, config);
    GreedyCampaign(options, g, attack_options, rng, &engine, &result);
  } else {
    TapeOracle tape(g, options.peega);
    GreedyCampaign(options, g, attack_options, rng, &tape, &result);
  }
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace

double PeegaAttack::Objective(const graph::Graph& clean,
                              const Matrix& poisoned_dense_adjacency,
                              const Matrix& poisoned_features) const {
  const Matrix reference = SurrogateRepresentation(
      clean.adjacency, clean.features, options_.layers);
  const auto self_pairs = SelfPairs(clean, options_.target_nodes);
  const auto pairs = NeighborPairs(clean, options_.target_nodes);
  Tape tape;
  Var a = tape.Input(poisoned_dense_adjacency, false);
  Var x = tape.Input(poisoned_features, false);
  Var obj = ObjectiveOnTape(&tape, a, x, reference, self_pairs, pairs,
                            options_.layers, options_.norm_p,
                            options_.lambda);
  return obj.value()(0, 0);
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
