#ifndef PEEGA_LINALG_RANDOM_H_
#define PEEGA_LINALG_RANDOM_H_

#include <cstdint>
#include <iosfwd>
#include <random>
#include <vector>

#include "linalg/kernels/mt64.h"

namespace repro::linalg {

/// A Bernoulli(p) trial as one comparison of a raw engine value.
///
/// `std::bernoulli_distribution(p)` maps one MT19937-64 value to
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

  uint64_t cut() const { return cut_; }
  bool always() const { return always_; }

 private:
  uint64_t cut_ = 0;     // successes are the values below this
  bool always_ = false;  // every value succeeds (the cut would be 2^64)
};

/// The MT19937-64 engine: the stream of `std::mt19937_64`, value for
/// value, from the same seeding recurrence, 312-word twist and
/// tempering, so every `std::` distribution run on it returns what it
/// returns on `std::mt19937_64`. Its text form is libstdc++'s byte for
/// byte (the 312 state words, then the position in the block).
///
/// Besides one value per call it fills a whole Bernoulli mask through
/// the dispatched `linalg.bernoulli_mask` kernel, which twists and
/// tempers the block in vector lanes that map to distinct stream
/// positions, or draws the mask's listed cells only through
/// `linalg.bernoulli_at`; the outcomes and the stream position
/// afterwards are those of one scalar draw per cell.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr int kStateWords = kernels::mt64::kWords;

  /// std::mt19937_64's seeding: word 0 is the seed, each next word
  /// f·(w ^ (w >> 62)) + i of the word w before it; the block is spent.
  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ == kStateWords) {
      Twist(state_);
      index_ = 0;
    }
    return Temper(state_[index_++]);
  }

  /// out[i] = entry[cut(v_i)] for the next n stream values v_i, one per
  /// cell in order: the cells and the stream position afterwards are
  /// those of n calls of `cut((*this)())`.
  void FillBernoulli(const BernoulliCut& cut, const float entry[2],
                     float* out, int64_t n);

  /// outcome[i] = cut(v_{offsets[i]}) over the next n stream values
  /// v_0 … v_{n-1}, for `count` strictly ascending offsets in [0, n):
  /// the outcomes of the listed cells of `FillBernoulli` over n cells,
  /// without tempering or comparing the others. The stream is left
  /// where n calls of `(*this)()` would leave it. O(n / 312) twists plus
  /// O(count), through the dispatched `linalg.bernoulli_at` kernel.
  void BernoulliAt(const BernoulliCut& cut, const int64_t* offsets,
                   int64_t count, uint8_t* outcome, int64_t n);

  /// The twist: regenerates all kStateWords words of `block` in place.
  /// Used by the scalar draws and the generic kernels alike.
  static void Twist(uint64_t* block);

  /// The tempering that maps a state word to a stream value.
  static uint64_t Temper(uint64_t z) {
    namespace mt = kernels::mt64;
    z ^= (z >> mt::kTemperU) & mt::kTemperD;
    z ^= (z << mt::kTemperS) & mt::kTemperB;
    z ^= (z << mt::kTemperT) & mt::kTemperC;
    z ^= z >> mt::kTemperL;
    return z;
  }

  /// libstdc++'s text: the 312 words, then the position, in decimal
  /// and separated by single spaces.
  friend std::ostream& operator<<(std::ostream& out,
                                  const Mt19937_64& engine);

  /// Reads the text `operator<<` writes, strictly: exactly 312 words of
  /// decimal digits that fit 64 bits, then a position in [0, 312],
  /// separated by whitespace and followed by nothing, not even
  /// whitespace. Anything else sets failbit and leaves the engine
  /// unchanged.
  friend std::istream& operator>>(std::istream& in, Mt19937_64& engine);

 private:
  uint64_t state_[kStateWords];
  int index_ = kStateWords;  // next word to temper; kStateWords: spent
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

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace repro::linalg

#endif  // PEEGA_LINALG_RANDOM_H_
