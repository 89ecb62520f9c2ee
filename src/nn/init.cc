#include "nn/init.h"

#include <cmath>

#include "linalg/ops.h"
#include "obs/trace.h"

namespace repro::nn {

linalg::Matrix GlorotUniform(int rows, int cols, linalg::Rng* rng) {
  const float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
  return linalg::RandomUniform(rows, cols, -a, a, rng);
}

linalg::Matrix DropoutMask(int rows, int cols, float drop,
                           linalg::Rng* rng) {
  const obs::TraceSpan span("nn.dropout_mask");
  linalg::Matrix mask(rows, cols, 0.0f);
  if (drop <= 0.0f) {
    mask.Fill(1.0f);
    return mask;
  }
  const float keep_scale = 1.0f / (1.0f - drop);
  const linalg::BernoulliCut dropped(drop);
  // Indexed by the trial's outcome: entry[1] where the cell is dropped.
  const float entry[2] = {keep_scale, 0.0f};
  rng->engine().FillBernoulli(dropped, entry, mask.data(), mask.size());
  return mask;
}

}  // namespace repro::nn
