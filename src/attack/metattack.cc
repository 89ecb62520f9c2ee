#include "attack/metattack.h"

#include "attack/greedy.h"
#include "autograd/tape.h"
#include "linalg/ops.h"
#include "nn/init.h"
#include "nn/trainer.h"
#include "obs/stopwatch.h"

namespace repro::attack {

using autograd::Tape;
using autograd::Var;
using linalg::Matrix;

AttackResult Metattack::Attack(const graph::Graph& g,
                               const AttackOptions& attack_options,
                               linalg::Rng* rng) {
  const obs::StopWatch watch;

  // Self-training: pseudo-labels for the outer (attack) loss.
  const std::vector<int> pseudo = nn::SelfTrainLabels(g, rng);
  Matrix pseudo_onehot(g.num_nodes, g.num_classes);
  for (int v = 0; v < g.num_nodes; ++v) {
    pseudo_onehot(v, pseudo[v]) = 1.0f;
  }
  const Matrix train_labels = g.OneHotLabels();
  std::vector<float> unlabeled_mask(g.num_nodes, 1.0f);
  for (int v : g.train_nodes) unlabeled_mask[v] = 0.0f;
  // Row mask as a matrix for masking the inner gradient.
  Matrix train_mask_matrix(g.num_nodes, g.num_classes);
  for (int v : g.train_nodes) {
    for (int c = 0; c < g.num_classes; ++c) train_mask_matrix(v, c) = 1.0f;
  }
  const float inv_train =
      g.train_nodes.empty() ? 0.0f : 1.0f / g.train_nodes.size();

  // Fixed surrogate initialization: the meta-gradient is computed from
  // the same training trajectory every greedy step, which keeps the
  // greedy scores comparable across steps.
  linalg::Rng init_rng(rng->engine()());
  const Matrix w0 =
      nn::GlorotUniform(g.features.cols(), g.num_classes, &init_rng);

  // The attack loss after unrolled inner training, as a function of the
  // dense adjacency `a` and features `x`.
  const auto objective = [&](Tape* tape, Var a, Var x) {
    Var a_n = tape->GcnNormalizeDense(a);
    // M = A_n (A_n X): two N x d products instead of an N^3 square.
    Var m = tape->MatMul(a_n, tape->MatMul(a_n, x));
    Var mt = tape->Transpose(m);
    // Unrolled inner training of the linear surrogate W.
    Var w = tape->Input(w0, /*requires_grad=*/false);
    for (int t = 0; t < options_.inner_steps; ++t) {
      Var probs = tape->RowSoftmax(tape->MatMul(m, w));
      Var masked_diff =
          tape->MulConst(tape->Sub(probs, tape->Input(train_labels, false)),
                         train_mask_matrix);
      Var gw = tape->Scale(tape->MatMul(mt, masked_diff), inv_train);
      w = tape->Sub(w, tape->Scale(gw, options_.inner_lr));
    }
    // Outer attack loss on unlabeled nodes vs. pseudo-labels. The greedy
    // step maximizes it, so flip scores use the raw (ascent) gradient.
    return tape->SoftmaxCrossEntropy(tape->MatMul(m, w), pseudo_onehot,
                                     unlabeled_mask);
  };

  GreedyConfig config;
  config.name = name();
  config.attack_features = options_.attack_features;
  TapeOracle oracle(g, config, objective);
  AttackResult result;
  GreedyCampaign(config, g, attack_options, /*replay=*/{},
                 [](size_t, const std::vector<Flip>&, double) {
                   return status::Status::Ok();
                 },
                 rng, &oracle, &result);
  result.elapsed_seconds = watch.Seconds();
  return result;
}

}  // namespace repro::attack
