#include "defense/model_defenders.h"

#include <algorithm>

namespace repro::defense {

DefenseReport Defender::TrainAndReport(nn::Model* model,
                                       const graph::Graph& purified,
                                       const nn::TrainOptions& train_options,
                                       linalg::Rng* rng,
                                       const obs::StopWatch& watch) const {
  const nn::TrainReport train =
      nn::TrainNodeClassifier(model, purified, train_options, rng);
  DefenseReport report;
  report.test_accuracy = train.test_accuracy;
  report.val_accuracy = train.val_accuracy;
  report.train_seconds = watch.Seconds();
  report.status = train.status.WithContext(name() + " training");
  return report;
}

GcnDefender::GcnDefender() : options_(nn::Gcn::Options()) {}
GcnDefender::GcnDefender(const nn::Gcn::Options& options)
    : options_(options) {}

DefenseReport GcnDefender::Run(const graph::Graph& g,
                               const nn::TrainOptions& train_options,
                               linalg::Rng* rng) {
  const obs::StopWatch watch;
  nn::Gcn model(g.features.cols(), g.num_classes, options_, rng);
  return TrainAndReport(&model, g, train_options, rng, watch);
}

GatDefender::GatDefender() : options_(nn::Gat::Options()) {}
GatDefender::GatDefender(const nn::Gat::Options& options)
    : options_(options) {}

DefenseReport GatDefender::Run(const graph::Graph& g,
                               const nn::TrainOptions& train_options,
                               linalg::Rng* rng) {
  const obs::StopWatch watch;
  nn::Gat model(g.features.cols(), g.num_classes, options_, rng);
  // GAT trains stably at a lower learning rate than GCN (matching the
  // original implementation's per-model defaults).
  nn::TrainOptions tuned = train_options;
  tuned.lr = std::min(train_options.lr, 0.005f);
  return TrainAndReport(&model, g, tuned, rng, watch);
}

RGcnDefender::RGcnDefender() : options_(nn::RGcn::Options()) {}
RGcnDefender::RGcnDefender(const nn::RGcn::Options& options)
    : options_(options) {}

DefenseReport RGcnDefender::Run(const graph::Graph& g,
                                const nn::TrainOptions& train_options,
                                linalg::Rng* rng) {
  const obs::StopWatch watch;
  nn::RGcn model(g.features.cols(), g.num_classes, options_, rng);
  return TrainAndReport(&model, g, train_options, rng, watch);
}

SimPGcnDefender::SimPGcnDefender() : options_(nn::SimPGcn::Options()) {}
SimPGcnDefender::SimPGcnDefender(const nn::SimPGcn::Options& options)
    : options_(options) {}

DefenseReport SimPGcnDefender::Run(const graph::Graph& g,
                                   const nn::TrainOptions& train_options,
                                   linalg::Rng* rng) {
  const obs::StopWatch watch;
  nn::SimPGcn model(g.features.cols(), g.num_classes, options_, rng);
  return TrainAndReport(&model, g, train_options, rng, watch);
}

}  // namespace repro::defense
