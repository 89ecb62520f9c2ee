#include "attack/gf_attack.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "attack/common.h"
#include "graph/graph.h"
#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "obs/stopwatch.h"

namespace repro::attack {

using linalg::EigenResult;
using linalg::Matrix;
using linalg::SparseMatrix;

namespace {

// Filter energy sum_i lambda_i^{2L} * feat_norm_i.
double FilterEnergy(const std::vector<float>& lambda,
                    const std::vector<double>& feat_norm, int window) {
  double energy = 0.0;
  for (size_t i = 0; i < lambda.size(); ++i) {
    energy += std::pow(static_cast<double>(lambda[i]), 2 * window) *
              feat_norm[i];
  }
  return energy;
}

}  // namespace

AttackResult GfAttack::Attack(const graph::Graph& g,
                              const AttackOptions& attack_options,
                              linalg::Rng* rng) {
  const obs::StopWatch watch;
  const int budget = ComputeBudget(g, attack_options.perturbation_rate);
  const AccessControl access(g.num_nodes, attack_options.attacker_nodes);
  const int n = g.num_nodes;
  const int rank = std::min(options_.rank, n);

  // Spectral view of the clean normalized adjacency.
  const SparseMatrix a_n = graph::GcnNormalize(g.adjacency);
  EigenResult eig = linalg::TopKEigenSymmetric(a_n, rank, rng);
  // ||u_i^T X||^2 per eigenvector.
  const Matrix utx = linalg::MatMulTransA(eig.vectors, g.features);
  std::vector<double> feat_norm(rank, 0.0);
  for (int i = 0; i < rank; ++i) {
    const float* row = utx.row(i);
    double acc = 0.0;
    for (int j = 0; j < utx.cols(); ++j) {
      acc += static_cast<double>(row[j]) * row[j];
    }
    feat_norm[i] = acc;
  }
  const double clean_energy =
      FilterEnergy(eig.values, feat_norm, options_.window);

  std::vector<int> degree(n, 0);
  for (int v = 0; v < n; ++v) degree[v] = g.adjacency.RowNnz(v);

  // Candidate pool: random allowed pairs (deduplicated).
  const int pool_size =
      std::min<int64_t>(static_cast<int64_t>(options_.pool_factor) * budget,
                        static_cast<int64_t>(n) * (n - 1) / 2);
  std::set<std::pair<int, int>> pool;
  int guard = 0;
  while (static_cast<int>(pool.size()) < pool_size &&
         guard++ < pool_size * 40) {
    const int u = static_cast<int>(rng->UniformInt(0, n - 1));
    const int v = static_cast<int>(rng->UniformInt(0, n - 1));
    if (u == v || !access.EdgeAllowed(u, v)) continue;
    pool.insert({std::min(u, v), std::max(u, v)});
  }

  // First pass: perturbation-theory score for each candidate.
  struct Scored {
    double score;
    int u, v;
  };
  std::vector<Scored> scored;
  scored.reserve(pool.size());
  for (const auto& [u, v] : pool) {
    const bool exists = g.HasEdge(u, v);
    const double w =
        (exists ? -1.0 : 1.0) /
        std::sqrt(static_cast<double>(degree[u] + 1) * (degree[v] + 1));
    double energy = 0.0;
    for (int i = 0; i < rank; ++i) {
      const double dl = 2.0 * w * eig.vectors(u, i) * eig.vectors(v, i);
      energy += std::pow(eig.values[i] + dl, 2 * options_.window) *
                feat_norm[i];
    }
    scored.push_back({std::fabs(energy - clean_energy), u, v});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              return a.score > b.score;
            });

  // Second pass: exact re-scoring of the strongest candidates by
  // recomputing the truncated spectrum of the perturbed matrix.
  const int refine_count = std::min<int>(
      static_cast<int>(scored.size()), options_.refine_factor * budget);
  AttackResult result;
  for (int i = 0; i < refine_count; ++i) {
    result.status = attack_options.deadline.Check(
        name() + " refine candidate " + std::to_string(i));
    // Best-so-far: candidates refined so far keep their exact scores,
    // the rest fall back to the perturbation-theory estimate.
    if (!result.status.ok()) break;
    const SparseMatrix a_pert = graph::GcnNormalize(
        graph::CsrFlipEdge(g.adjacency, scored[i].u, scored[i].v));
    linalg::Rng refine_rng(12345);
    EigenResult pert = linalg::TopKEigenSymmetric(
        a_pert, rank, &refine_rng, options_.refine_iters);
    const Matrix utx_pert =
        linalg::MatMulTransA(pert.vectors, g.features);
    std::vector<double> fn(rank, 0.0);
    for (int r = 0; r < rank; ++r) {
      const float* row = utx_pert.row(r);
      double acc = 0.0;
      for (int j = 0; j < utx_pert.cols(); ++j) {
        acc += static_cast<double>(row[j]) * row[j];
      }
      fn[r] = acc;
    }
    scored[i].score = std::fabs(
        FilterEnergy(pert.values, fn, options_.window) - clean_energy);
  }
  std::sort(scored.begin(), scored.begin() + refine_count,
            [](const Scored& a, const Scored& b) {
              return a.score > b.score;
            });

  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < std::min<int>(budget, scored.size()); ++i) {
    pairs.emplace_back(scored[i].u, scored[i].v);
  }
  CommitEdgeFlips(g, pairs, &result);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::attack
