#include "nn/init.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

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

linalg::SparseMatrix DropoutSparse(const linalg::SparseMatrix& x, float drop,
                                   linalg::Rng* rng) {
  const obs::TraceSpan span("nn.dropout_sparse");
  if (drop <= 0.0f) return x;
  const float keep_scale = 1.0f / (1.0f - drop);
  const linalg::BernoulliCut dropped(drop);
  const std::vector<int64_t>& row_ptr = x.row_ptr();
  const std::vector<int>& col_idx = x.col_idx();
  const std::vector<float>& values = x.values();
  std::vector<int64_t> offsets(col_idx.size());
  for (int r = 0; r < x.rows(); ++r) {
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      offsets[k] = static_cast<int64_t>(r) * x.cols() + col_idx[k];
    }
  }
  std::vector<uint8_t> outcome(offsets.size());
  rng->engine().BernoulliAt(dropped, offsets.data(), x.nnz(), outcome.data(),
                            static_cast<int64_t>(x.rows()) * x.cols());
  // Compacts without a branch on the outcome: every entry is written,
  // and only a kept one advances the write position.
  std::vector<int64_t> kept_ptr(row_ptr.size(), 0);
  std::vector<int> kept_cols(col_idx.size());
  std::vector<float> kept_values(col_idx.size());
  int64_t kept = 0;
  for (int r = 0; r < x.rows(); ++r) {
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      kept_cols[kept] = col_idx[k];
      kept_values[kept] = values[k] * keep_scale;
      kept += outcome[k] == 0 ? 1 : 0;
    }
    kept_ptr[r + 1] = kept;
  }
  kept_cols.resize(kept);
  kept_values.resize(kept);
  return linalg::SparseMatrix::FromCsr(x.rows(), x.cols(), std::move(kept_ptr),
                                       std::move(kept_cols),
                                       std::move(kept_values));
}

}  // namespace repro::nn
