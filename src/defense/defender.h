#ifndef PEEGA_DEFENSE_DEFENDER_H_
#define PEEGA_DEFENSE_DEFENDER_H_

#include <string>

#include "graph/graph.h"
#include "linalg/random.h"
#include "nn/trainer.h"
#include "obs/stopwatch.h"

namespace repro::defense {

/// Outcome of training a defender on a (possibly poisoned) graph.
struct DefenseReport {
  double test_accuracy = 0.0;
  double val_accuracy = 0.0;
  /// Wall-clock seconds of the full defense pipeline, purification
  /// included (Tab. VIII).
  double train_seconds = 0.0;
  /// OK for a completed run; otherwise the accuracies describe the
  /// best-so-far model the trainer degraded to (see nn::TrainReport).
  status::Status status;
};

/// Interface of GNN defenders. A defender is a purification step (an
/// edited or augmented graph; none for the raw models) plus an nn::Model
/// trained on the result by the one trainer, nn::TrainNodeClassifier.
class Defender {
 public:
  virtual ~Defender() = default;

  virtual std::string name() const = 0;

  /// Runs the full defense pipeline on `g`. Implementations must not
  /// mutate `g`.
  virtual DefenseReport Run(const graph::Graph& g,
                            const nn::TrainOptions& train_options,
                            linalg::Rng* rng) = 0;

 protected:
  /// Trains `model` on `purified` and reports its accuracies. `watch`
  /// runs from before purification, so `train_seconds` covers the whole
  /// pipeline; a non-OK status reads "<name()> training: ...".
  DefenseReport TrainAndReport(nn::Model* model,
                               const graph::Graph& purified,
                               const nn::TrainOptions& train_options,
                               linalg::Rng* rng,
                               const obs::StopWatch& watch) const;
};

}  // namespace repro::defense

#endif  // PEEGA_DEFENSE_DEFENDER_H_
