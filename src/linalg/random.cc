#include "linalg/random.h"

#include <algorithm>
#include <numeric>

#include "debug/check.h"

namespace repro::linalg {

namespace {

/// A generator that yields one fixed value, counting its calls; its
/// range is the engine's, so the distribution maps the value as it
/// would map the same engine output.
class OneValue {
 public:
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  explicit OneValue(result_type value) : value_(value) {}
  result_type operator()() {
    ++calls_;
    return value_;
  }
  int calls() const { return calls_; }

 private:
  result_type value_;
  int calls_ = 0;
};

bool Succeeds(std::bernoulli_distribution& trial, uint64_t value) {
  OneValue gen(value);
  const bool success = trial(gen);
  PEEGA_CHECK_EQ(gen.calls(), 1)
      << " — bernoulli_distribution must draw one engine value per trial";
  return success;
}

}  // namespace

BernoulliCut::BernoulliCut(double p) {
  static_assert(std::mt19937_64::min() == 0 &&
                std::mt19937_64::max() == ~uint64_t{0});
  std::bernoulli_distribution trial(p);
  if (Succeeds(trial, ~uint64_t{0})) {
    always_ = true;
    return;
  }
  if (!Succeeds(trial, 0)) return;  // no value succeeds: the cut is 0
  // `lo` succeeds and `hi` fails; the cut is the smallest failing value.
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (Succeeds(trial, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  cut_ = hi;
}

std::vector<int> Rng::Permutation(int n) {
  PEEGA_CHECK_GE(n, 0);
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), engine_);
  return perm;
}

std::vector<int> Rng::Sample(int n, int k) {
  PEEGA_CHECK_GE(k, 0);
  PEEGA_CHECK_LE(k, n);
  // Partial Fisher-Yates: O(n) memory but only k swaps.
  std::vector<int> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    int j = static_cast<int>(UniformInt(i, n - 1));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

}  // namespace repro::linalg
