#ifndef PEEGA_NN_INIT_H_
#define PEEGA_NN_INIT_H_

#include "linalg/matrix.h"
#include "linalg/random.h"

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

}  // namespace repro::nn

#endif  // PEEGA_NN_INIT_H_
