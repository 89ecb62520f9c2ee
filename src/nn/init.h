#ifndef PEEGA_NN_INIT_H_
#define PEEGA_NN_INIT_H_

#include "linalg/matrix.h"
#include "linalg/random.h"
#include "linalg/sparse.h"

namespace repro::nn {

/// Glorot (Xavier) uniform initialization: U(-a, a) with
/// a = sqrt(6 / (fan_in + fan_out)).
linalg::Matrix GlorotUniform(int rows, int cols, linalg::Rng* rng);

/// Inverted-dropout multiplier mask: each entry is 0 with probability
/// `drop` and 1/(1-drop) otherwise. Draws one engine value per entry in
/// row-major order, each the same trial as `rng->Bernoulli(drop)`
/// (through `linalg::BernoulliCut`), so a seed fixes the mask. One
/// sequential stream, drawn in vector blocks by
/// `linalg::Mt19937_64::FillBernoulli`; O(rows · cols).
linalg::Matrix DropoutMask(int rows, int cols, float drop,
                           linalg::Rng* rng);

/// x ⊙ DropoutMask(x.rows(), x.cols(), drop, rng) over x's stored
/// entries: a kept entry is x·(1/(1-drop)), the product the dense mask
/// gives, and a dropped one is left out. Draws from the same stream
/// positions as `DropoutMask` (cell (r, c) is value r·cols + c) and
/// leaves the stream where it does, but tempers and compares only the
/// stored cells (`linalg::Mt19937_64::BernoulliAt`). `drop <= 0` draws
/// nothing and returns x. O(rows · cols / 312) twists plus O(nnz).
linalg::SparseMatrix DropoutSparse(const linalg::SparseMatrix& x, float drop,
                                   linalg::Rng* rng);

}  // namespace repro::nn

#endif  // PEEGA_NN_INIT_H_
