#ifndef PEEGA_ATTACK_GREEDY_H_
#define PEEGA_ATTACK_GREEDY_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "attack/common.h"
#include "autograd/tape.h"
#include "debug/failpoints.h"
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "linalg/random.h"
#include "linalg/sparse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "status/status.h"

namespace repro::attack {

/// What a greedy campaign may flip, and how many flips one score refresh
/// commits.
struct GreedyConfig {
  /// Names the attacker in the status of a stopped campaign.
  std::string name;
  bool attack_topology = true;
  bool attack_features = true;
  /// Flips committed per refresh: 1 is Alg. 1, more is PEEGA-Batch.
  int batch_size = 1;
  /// Scale of Gumbel(0, 1) noise added to each score before ranking.
  float gumbel_scale = 0.0f;
};

namespace internal {

/// An oracle's edge scores as a scan's block scorer.
template <typename Oracle>
struct EdgeScorer {
  const Oracle& oracle;

  float operator()(int u, int v) const { return oracle.EdgeScore(u, v); }
  void Row(int a, int b0, int b1, float* out) const {
    oracle.EdgeScoreRow(a, b0, b1, out);
  }
  void Column(int b, int a0, int a1, float* out) const {
    oracle.EdgeScoreColumn(b, a0, a1, out);
  }
};

/// An oracle's normalized feature scores S_f / beta (Sec. V-D1) as a
/// scan's block scorer.
template <typename Oracle>
struct FeatureScorer {
  const Oracle& oracle;
  float beta;

  float operator()(int v, int j) const {
    return oracle.FeatureScore(v, j) / beta;
  }
  void Row(int v, int j0, int j1, float* out) const {
    oracle.FeatureScoreRow(v, j0, j1, beta, out);
  }
};

}  // namespace internal

/// Called after each iteration's commits with the flip count before the
/// iteration, every committed flip and the budget spent; a non-OK status
/// stops the campaign. PEEGA saves its checkpoint here.
using GreedySaveFn = std::function<status::Status(
    size_t before, const std::vector<Flip>& flips, double spent)>;

/// The greedy loop of Alg. 1 and of its top-k extension, over a score
/// oracle: PEEGA's cached closed-form gradients (core::PeegaEngine), or
/// a TapeOracle's autograd gradients (PEEGA's reference, Metattack).
/// Each iteration refreshes the scores, scans the flip kinds the
/// remaining budget can afford, ranks the candidates under RanksBefore,
/// and commits the best `batch_size` in rank order, skipping any that
/// the batch's earlier flips made unaffordable. With batch_size = 1 and
/// no Gumbel noise this is Alg. 1 exactly: edges win ties, and within
/// one kind the lowest (a, b) wins. Feature scores are ranked divided by
/// the feature cost beta (Sec. V-D1).
///
/// `replay` flips are committed before the first refresh (a resumed
/// campaign); `save` runs after every iteration. The deadline and the
/// `peega.interrupt` failpoint are polled once per iteration, and a
/// failed refresh stops the campaign; either way `result` holds the
/// flips committed so far. The campaign ends with an objective-only
/// refresh for `final_objective`, and commits the poisoned graph to
/// `result`.
///
/// One scan cache per flip kind lives for the whole campaign, told after
/// each refresh which rows the oracle changed. The freeze sets change
/// only at flipped rows, and the oracles always count those as changed.
///
/// The oracle provides RefreshScores, RefreshObjective, EdgeScore,
/// FeatureScore, their blocks EdgeScoreRow, EdgeScoreColumn and
/// FeatureScoreRow (each block the bits of the scalar scores; the scan
/// reads only blocks, and a debug-numerics build checks them against
/// the scalar scores), changed_edge_rows, changed_feature_rows,
/// FlipEdge, FlipFeature, Objective, PoisonedAdjacency and features.
template <typename Oracle>
void GreedyCampaign(const GreedyConfig& config, const graph::Graph& g,
                    const AttackOptions& attack_options,
                    const std::vector<Flip>& replay, const GreedySaveFn& save,
                    linalg::Rng* rng, Oracle* oracle, AttackResult* result) {
  const int budget = ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const float beta = static_cast<float>(attack_options.feature_cost);
  // Every candidate survives the scan when Gumbel noise is drawn over the
  // whole list; otherwise each kind contributes its best batch_size.
  const int keep = config.gumbel_scale > 0.0f ? 0 : config.batch_size;

  // Freeze once-flipped entries: without this the greedy loop oscillates
  // on one edge after the objective's local optimum is reached.
  FlipSet edge_done(g.num_nodes);
  FlipSet feature_done(g.features.cols());
  // A cache only for each kind the campaign attacks.
  std::optional<ScanCache</*is_feature=*/false>> edge_scan;
  std::optional<ScanCache</*is_feature=*/true>> feature_scan;
  if (config.attack_topology) {
    edge_scan.emplace(g.num_nodes, g.num_nodes, keep);
  }
  if (config.attack_features) {
    feature_scan.emplace(g.num_nodes, g.features.cols(), keep);
  }
  double spent = 0.0;
  const auto commit = [&](const Flip& flip) {
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
  for (const Flip& flip : replay) commit(flip);

  // Alg. 1 phase instrumentation: score = gradient refresh, scan =
  // candidate search, flip = commit. These are the rows of the paper's
  // Tab. VII cost breakdown.
  static obs::Counter* const iterations = obs::GetCounter("peega.iterations");
  static obs::Counter* const edge_flips = obs::GetCounter("peega.edge_flips");
  static obs::Counter* const feature_flips =
      obs::GetCounter("peega.feature_flips");

  while (true) {
    const bool can_edge =
        config.attack_topology && spent + 1.0 <= budget + 1e-9;
    const bool can_feature = config.attack_features && beta > 0.0f &&
                             spent + beta <= budget + 1e-9;
    if (!can_edge && !can_feature) break;
    result->status = attack_options.deadline.Check(
        config.name + " greedy iteration " +
        std::to_string(result->flips.size()));
    if (result->status.ok() && PEEGA_FAILPOINT("peega.interrupt")) {
      result->status = status::Cancelled("injected failpoint peega.interrupt");
    }
    if (!result->status.ok()) break;  // best-so-far: flips are a prefix

    const obs::TraceSpan iteration_span("peega.iteration");
    iterations->Add(1);
    {
      const obs::TraceSpan score_span("peega.score");
      result->status = oracle->RefreshScores();
    }
    if (!result->status.ok()) {
      result->status =
          result->status.WithContext(config.name + " score refresh");
      break;
    }
    if (edge_scan) edge_scan->Invalidate(oracle->changed_edge_rows());
    if (feature_scan) {
      feature_scan->Invalidate(oracle->changed_feature_rows());
    }

    std::vector<FlipCandidate> candidates;
    {
      const obs::TraceSpan scan_span("peega.scan");
      if (can_edge) {
        candidates = edge_scan->Scan(access, &edge_done,
                                     internal::EdgeScorer<Oracle>{*oracle});
      }
      if (can_feature) {
        const std::vector<FlipCandidate> features = feature_scan->Scan(
            access, &feature_done,
            internal::FeatureScorer<Oracle>{*oracle, beta});
        candidates.insert(candidates.end(), features.begin(), features.end());
      }
    }
    if (candidates.empty()) break;

    const obs::TraceSpan flip_span("peega.flip");
    if (config.gumbel_scale > 0.0f) {
      // Drawn on the calling thread in candidate-list order: the same RNG
      // sequence as a serial scan, so seeded runs reproduce at any
      // thread count.
      for (FlipCandidate& c : candidates) {
        const double u = std::max(1e-12, rng->Uniform(0.0, 1.0));
        c.score += static_cast<float>(-config.gumbel_scale *
                                      std::log(-std::log(u)));
      }
    }
    KeepTop(&candidates, config.batch_size);
    const size_t before = result->flips.size();
    for (const FlipCandidate& c : candidates) {
      if (spent + (c.flip.is_feature ? beta : 1.0) > budget + 1e-9) continue;
      commit(c.flip);
      (c.flip.is_feature ? feature_flips : edge_flips)->Add(1);
    }
    const status::Status saved = save(before, result->flips, spent);
    if (!saved.ok()) {
      result->status = saved;
      break;
    }
  }

  // Bring the objective up to date with the final flip; no scan follows,
  // so the scores are not refreshed. After a numeric fault the refresh
  // stays latched; the committed graph state is still valid but the
  // objective is not, so it is left at 0 for the degraded result.
  const status::Status final_refresh = oracle->RefreshObjective();
  if (final_refresh.ok()) {
    result->final_objective = oracle->Objective();
  } else if (result->status.ok()) {
    result->status = final_refresh.WithContext(config.name + " final refresh");
  }
  result->poisoned = g.WithAdjacencyAndFeatures(oracle->PoisonedAdjacency(),
                                                oracle->features());
}

/// A score oracle on the autograd tape: every RefreshScores re-derives
/// the gradients of `objective` — Var(Tape*, Var a, Var x) on the dense
/// adjacency a and features x — through a fresh tape, O(N²F) per pass
/// for PEEGA. It is PEEGA's reference, which core::PeegaEngine is held
/// to flip for flip (tests/engine_equiv_test.cc), and Metattack's
/// meta-gradient oracle. Scores are S = grad ⊙ (1 - 2A), edges summing
/// both directions.
class TapeOracle {
 public:
  using ObjectiveFn = std::function<autograd::Var(autograd::Tape*,
                                                autograd::Var a,
                                                autograd::Var x)>;

  /// Gradients are taken only for the kinds `config` attacks. `g` must
  /// outlive the oracle.
  TapeOracle(const graph::Graph& g, const GreedyConfig& config,
             ObjectiveFn objective)
      : attack_topology_(config.attack_topology),
        attack_features_(config.attack_features),
        objective_fn_(std::move(objective)),
        clean_adjacency_(g.adjacency),
        dense_(g.adjacency.ToDense()),
        features_(g.features),
        all_rows_(static_cast<size_t>(g.num_nodes)) {
    std::iota(all_rows_.begin(), all_rows_.end(), 0);
  }

  // Latches a non-finite objective like the engine does: NaN gradients
  // would make every scan comparison false and the loop would end
  // silently OK.
  status::Status RefreshScores() { return Pass(/*gradients=*/true); }
  // The forward pass alone, for Objective(): no scores until the next
  // RefreshScores.
  status::Status RefreshObjective() { return Pass(/*gradients=*/false); }

  float EdgeScore(int u, int v) const {
    const float direction = 1.0f - 2.0f * dense_(u, v);  // +1 add, -1 del
    return direction * ((*grad_a_)(u, v) + (*grad_a_)(v, u));
  }
  float FeatureScore(int v, int j) const {
    const float direction = 1.0f - 2.0f * features_(v, j);
    return direction * (*grad_x_)(v, j);
  }
  // The scan's blocks, as loops over the scores above.
  void EdgeScoreRow(int a, int b0, int b1, float* out) const {
    for (int b = b0; b < b1; ++b) out[b - b0] = EdgeScore(a, b);
  }
  void EdgeScoreColumn(int b, int a0, int a1, float* out) const {
    for (int a = a0; a < a1; ++a) out[a - a0] = EdgeScore(a, b);
  }
  void FeatureScoreRow(int v, int j0, int j1, float beta, float* out) const {
    for (int j = j0; j < j1; ++j) out[j - j0] = FeatureScore(v, j) / beta;
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
  linalg::SparseMatrix PoisonedAdjacency() const {
    return graph::WithFlips(clean_adjacency_, edge_flips_);
  }
  const linalg::Matrix& features() const { return features_; }

 private:
  status::Status Pass(bool gradients) {
    if (!status_.ok()) return status_;
    tape_.emplace();
    autograd::Var a = tape_->Input(dense_, gradients && attack_topology_);
    autograd::Var x = tape_->Input(features_, gradients && attack_features_);
    autograd::Var obj = objective_fn_(&*tape_, a, x);
    if (gradients) tape_->Backward(obj);
    grad_a_ = gradients && attack_topology_ ? &a.grad() : nullptr;
    grad_x_ = gradients && attack_features_ ? &x.grad() : nullptr;
    objective_ = obj.value()(0, 0);
    if (!std::isfinite(objective_)) {
      status_ = status::NumericFault("non-finite objective on the tape");
    }
    return status_;
  }

  const bool attack_topology_;
  const bool attack_features_;
  const ObjectiveFn objective_fn_;
  const linalg::SparseMatrix& clean_adjacency_;
  linalg::Matrix dense_;
  linalg::Matrix features_;
  std::vector<std::pair<int, int>> edge_flips_;
  std::vector<int> all_rows_;
  std::optional<autograd::Tape> tape_;  // the latest pass; owns the grads
  const linalg::Matrix* grad_a_ = nullptr;
  const linalg::Matrix* grad_x_ = nullptr;
  double objective_ = 0.0;
  status::Status status_;
};

}  // namespace repro::attack

#endif  // PEEGA_ATTACK_GREEDY_H_
