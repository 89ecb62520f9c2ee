#include "defense/prognn.h"

#include <algorithm>
#include <cmath>

#include "autograd/tape.h"
#include "graph/metrics.h"
#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "nn/optim.h"
#include "nn/trainer.h"
#include "obs/stopwatch.h"

namespace repro::defense {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

ProGnnDefender::ProGnnDefender() : options_(Options()) {}
ProGnnDefender::ProGnnDefender(const Options& options)
    : options_(options) {}

namespace {

// Pairwise squared feature distances d_ij = ||x_i - x_j||^2, the gradient
// of the smoothness term tr(X^T L_S X) = 1/2 sum_ij S_ij d_ij w.r.t. S.
Matrix PairwiseSquaredDistances(const Matrix& x) {
  const int n = x.rows();
  std::vector<float> sq(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float* row = x.row(i);
    float acc = 0.0f;
    for (int j = 0; j < x.cols(); ++j) acc += row[j] * row[j];
    sq[i] = acc;
  }
  Matrix gram = linalg::MatMulTransB(x, x);
  Matrix dist(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      dist(i, j) = std::max(0.0f, sq[i] + sq[j] - 2.0f * gram(i, j));
    }
  }
  return dist;
}

void SymmetrizeClamp(Matrix* s) {
  const int n = s->rows();
  for (int i = 0; i < n; ++i) {
    (*s)(i, i) = 0.0f;
    for (int j = i + 1; j < n; ++j) {
      const float avg =
          std::clamp(0.5f * ((*s)(i, j) + (*s)(j, i)), 0.0f, 1.0f);
      (*s)(i, j) = avg;
      (*s)(j, i) = avg;
    }
  }
}

}  // namespace

DefenseReport ProGnnDefender::Run(const graph::Graph& g,
                                  const nn::TrainOptions& train_options,
                                  linalg::Rng* rng) {
  const obs::StopWatch watch;
  const Matrix a_hat = g.adjacency.ToDense();
  Matrix s = a_hat;  // learned structure, initialized at the poison graph
  const Matrix feature_dist = PairwiseSquaredDistances(g.features);
  const Matrix labels = g.OneHotLabels();
  const std::vector<float> train_mask = g.NodeMask(g.train_nodes);

  const linalg::SparseMatrix features =
      linalg::SparseMatrix::FromDense(g.features);
  nn::Gcn gcn(g.features.cols(), g.num_classes, options_.gcn, rng);
  nn::Adam gnn_optimizer(train_options.lr, train_options.weight_decay);

  status::Status loop_status;
  for (int epoch = 0; epoch < options_.outer_epochs; ++epoch) {
    loop_status = train_options.deadline.Check(
        "Pro-GNN structure epoch " + std::to_string(epoch));
    if (!loop_status.ok()) break;  // keep the structure learned so far
    Tape tape;
    Var s_var = tape.Input(s, /*requires_grad=*/true);
    Var a_n = tape.GcnNormalizeDense(s_var);
    auto bound = gcn.BindParameters(&tape);
    Var logits = gcn.ForwardWithDensePropagation(&tape, a_n, features, bound,
                                                 /*training=*/true, rng);
    Var loss = tape.SoftmaxCrossEntropy(logits, labels, train_mask);
    tape.Backward(loss);

    // (1) GCN step.
    for (auto& [param, var] : bound) gnn_optimizer.Step(param, var.grad());

    // (2) Structure step: GNN loss + fidelity + smoothness gradients.
    Matrix grad = s_var.grad();
    linalg::Axpy(&grad, linalg::Sub(s, a_hat),
                 2.0f * options_.gamma_fidelity);
    linalg::Axpy(&grad, feature_dist, 0.5f * options_.lambda_smooth);
    linalg::Axpy(&s, grad, -options_.structure_lr);
    // Proximal L1: soft-threshold toward sparsity.
    float* sp = s.data();
    const float thr = options_.alpha_l1;
    for (int64_t i = 0; i < s.size(); ++i) {
      sp[i] = sp[i] > thr ? sp[i] - thr : (sp[i] < -thr ? sp[i] + thr : 0.0f);
    }
    // Periodic nuclear proximal step: spectral soft-threshold.
    if ((epoch + 1) % options_.lowrank_every == 0) {
      const int rank = std::min(options_.lowrank_rank, g.num_nodes);
      linalg::EigenResult eig =
          linalg::TopKEigenSymmetricDense(s, rank, rng, 25);
      for (float& v : eig.values) {
        v = v > 0.0f ? std::max(0.0f, v - options_.nuclear_tau)
                     : std::min(0.0f, v + options_.nuclear_tau);
      }
      s = linalg::LowRankReconstruct(eig);
    }
    SymmetrizeClamp(&s);
  }

  // Final training of a fresh GCN on the learned structure. When the
  // deadline interrupted the structure loop, this short training still
  // runs unbounded so the best-so-far structure yields a usable model
  // (the report carries the non-OK status either way).
  graph::Graph purified = g;
  purified.adjacency = linalg::SparseMatrix::FromDense(s, 0.01f);
  nn::Gcn final_gcn(g.features.cols(), g.num_classes, options_.gcn, rng);
  nn::TrainOptions final_options = train_options;
  if (!loop_status.ok()) final_options.deadline = status::Deadline();
  DefenseReport report =
      TrainAndReport(&final_gcn, purified, final_options, rng, watch);
  if (!loop_status.ok()) report.status = loop_status.WithContext("Pro-GNN");
  return report;
}

}  // namespace repro::defense
