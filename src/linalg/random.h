#ifndef PEEGA_LINALG_RANDOM_H_
#define PEEGA_LINALG_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace repro::linalg {

/// A Bernoulli(p) trial as one comparison of a raw engine value.
///
/// `std::bernoulli_distribution(p)` maps one `std::mt19937_64` value to
/// a double in [0, 1) and succeeds when it lies below `p`; that map is
/// nondecreasing, so the successes are exactly the values below one
/// 64-bit cut. The constructor finds the cut by bisection, asking the
/// distribution itself about single values, so `Rng::Bernoulli(cut)`
/// returns what `Rng::Bernoulli(p)` would on the same stream and
/// consumes the same one engine value, without its per-draw
/// floating-point conversion. Construction is O(64) draws.
class BernoulliCut {
 public:
  explicit BernoulliCut(double p);

  /// True when `engine_value` is a success.
  bool operator()(uint64_t engine_value) const {
    return always_ || engine_value < cut_;
  }

 private:
  uint64_t cut_ = 0;     // successes are the values below this
  bool always_ = false;  // every value succeeds (the cut would be 2^64)
};

/// Seeded random number generator used throughout the library.
///
/// All stochastic components (dataset generators, weight initialization,
/// dropout, attack tie-breaking) draw from an explicitly passed `Rng` so
/// every experiment is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal sample scaled by `stddev`.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// The same trial as `Bernoulli(p)` for the `p` that built `cut`, on
  /// the same one engine value.
  bool Bernoulli(const BernoulliCut& cut) { return cut(engine_()); }

  /// Returns a random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Samples `k` distinct values from {0, ..., n-1} (k <= n).
  std::vector<int> Sample(int n, int k);

  /// Derives an independent child generator; useful for giving each
  /// repetition of an experiment its own stream.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_RANDOM_H_
