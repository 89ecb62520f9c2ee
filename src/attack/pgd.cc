#include "attack/pgd.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/common.h"
#include "autograd/tape.h"
#include "linalg/ops.h"
#include "nn/gcn.h"
#include "nn/optim.h"
#include "nn/trainer.h"
#include "obs/stopwatch.h"

namespace repro::attack {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

namespace {

// Projects the upper triangle of P onto {p in [0,1], sum(p) <= budget}
// via bisection on the uniform shift mu, then mirrors to keep symmetry.
void ProjectPerturbation(Matrix* p, double budget) {
  const int n = p->rows();
  auto shifted_sum = [&](float mu) {
    double total = 0.0;
    for (int u = 0; u < n; ++u) {
      const float* row = p->row(u);
      for (int v = u + 1; v < n; ++v) {
        total += std::clamp(row[v] - mu, 0.0f, 1.0f);
      }
    }
    return total;
  };
  float mu = 0.0f;
  if (shifted_sum(0.0f) > budget) {
    float lo = 0.0f, hi = 1.0f;
    for (int it = 0; it < 30; ++it) {
      mu = 0.5f * (lo + hi);
      if (shifted_sum(mu) > budget) lo = mu;
      else hi = mu;
    }
    mu = hi;
  }
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const float value = std::clamp((*p)(u, v) - mu, 0.0f, 1.0f);
      (*p)(u, v) = value;
      (*p)(v, u) = value;
    }
    (*p)(u, u) = 0.0f;
  }
}

}  // namespace

AttackResult PgdAttack::Attack(const graph::Graph& g,
                               const AttackOptions& attack_options,
                               linalg::Rng* rng) {
  const obs::StopWatch watch;
  const int budget = ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);

  // White-box: pre-train the victim GCN on the clean graph.
  nn::Gcn::Options victim_options;
  victim_options.hidden_dim = options_.victim_hidden;
  nn::Gcn victim(g.features.cols(), g.num_classes, victim_options, rng);
  nn::TrainOptions train_options;
  train_options.max_epochs = options_.victim_epochs;
  nn::TrainNodeClassifier(&victim, g, train_options, rng);
  nn::Adam inner_optimizer(0.01f, 5e-4f);

  const Matrix a_dense = g.adjacency.ToDense();
  const Matrix flip_direction = linalg::Affine(a_dense, -2.0f, 1.0f);
  const Matrix labels = g.OneHotLabels();
  const std::vector<float> train_mask = g.NodeMask(g.train_nodes);

  const linalg::SparseMatrix features =
      linalg::SparseMatrix::FromDense(g.features);
  Matrix p(g.num_nodes, g.num_nodes);  // relaxed perturbation
  // Records the victim's training loss on A_hat = A + (1 - 2A) ⊙ P and
  // returns P's tape handle, the bound victim weights and the loss.
  auto record_loss = [&](Tape* tape, bool p_grad) {
    Var p_var = tape->Input(p, p_grad);
    Var a_hat = tape->AddConst(tape->MulConst(p_var, flip_direction),
                               a_dense);
    Var a_n = tape->GcnNormalizeDense(a_hat);
    auto bound = victim.BindParameters(tape);
    Var logits = victim.ForwardWithDensePropagation(
        tape, a_n, features, bound, /*training=*/false, rng);
    return std::make_tuple(
        p_var, bound, tape->SoftmaxCrossEntropy(logits, labels, train_mask));
  };
  AttackResult result;
  for (int t = 1; t <= options_.steps; ++t) {
    result.status = attack_options.deadline.Check(
        name() + " step " + std::to_string(t));
    // Best-so-far: the current relaxed P is already a valid perturbation
    // candidate; discretization below commits whatever ascent achieved.
    if (!result.status.ok()) break;
    Tape tape;
    auto [p_var, bound, loss] = record_loss(&tape, /*p_grad=*/true);
    tape.Backward(loss);

    if (options_.inner_steps > 0) {
      // MinMax: descend the victim on the current relaxed graph.
      for (auto& [param, var] : bound) {
        inner_optimizer.Step(param, var.grad());
      }
      // (One victim step per outer step; inner_steps > 1 repeats.)
      for (int s = 1; s < options_.inner_steps; ++s) {
        Tape inner_tape;
        auto [ip, ibound, iloss] = record_loss(&inner_tape, /*p_grad=*/false);
        inner_tape.Backward(iloss);
        for (auto& [param, var] : ibound) {
          inner_optimizer.Step(param, var.grad());
        }
      }
    }

    // Ascent on P (maximize the loss), then project.
    const float lr = options_.base_lr / std::sqrt(static_cast<float>(t));
    linalg::Axpy(&p, p_var.grad(), lr);
    ProjectPerturbation(&p, budget);
  }

  // Commit the strongest relaxed entries as discrete flips.
  std::vector<std::pair<float, std::pair<int, int>>> ranked;
  for (int u = 0; u < g.num_nodes; ++u) {
    for (int v = u + 1; v < g.num_nodes; ++v) {
      if (p(u, v) > 1e-4f && access.EdgeAllowed(u, v)) {
        ranked.push_back({p(u, v), {u, v}});
      }
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < std::min<int>(budget, ranked.size()); ++i) {
    pairs.push_back(ranked[i].second);
  }
  CommitEdgeFlips(g, pairs, &result);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::attack
