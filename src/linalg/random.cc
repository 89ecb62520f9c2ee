#include "linalg/random.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "debug/check.h"
#include "linalg/kernels/kernels.h"

namespace repro::linalg {

namespace {

/// A generator that yields one fixed value, counting its calls; its
/// range is the engine's, so the distribution maps the value as it
/// would map the same engine output.
class OneValue {
 public:
  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }

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
  static_assert(Mt19937_64::min() == 0 &&
                Mt19937_64::max() == ~uint64_t{0});
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

namespace mt = kernels::mt64;

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (int i = 1; i < kStateWords; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = mt::kSeedMultiplier * (prev ^ (prev >> 62)) +
                static_cast<uint64_t>(i);
  }
  index_ = kStateWords;
}

void Mt19937_64::Twist(uint64_t* block) {
  const auto mix = [](uint64_t word, uint64_t next) {
    const uint64_t y = (word & mt::kUpperMask) | (next & mt::kLowerMask);
    return (y >> 1) ^ ((y & 1) != 0 ? mt::kMatrixA : 0);
  };
  constexpr int kHalf = kStateWords - mt::kShift;
  for (int k = 0; k < kHalf; ++k) {
    block[k] = block[k + mt::kShift] ^ mix(block[k], block[k + 1]);
  }
  for (int k = kHalf; k < kStateWords - 1; ++k) {
    block[k] = block[k - kHalf] ^ mix(block[k], block[k + 1]);
  }
  block[kStateWords - 1] =
      block[mt::kShift - 1] ^ mix(block[kStateWords - 1], block[0]);
}

void Mt19937_64::FillBernoulli(const BernoulliCut& cut, const float entry[2],
                               float* out, int64_t n) {
  kernels::BernoulliMaskTable().Select()(state_, &index_, cut.cut(),
                                         cut.always(), entry, out, n);
}

void Mt19937_64::BernoulliAt(const BernoulliCut& cut, const int64_t* offsets,
                             int64_t count, uint8_t* outcome, int64_t n) {
  PEEGA_CHECK_GE(count, 0);
  PEEGA_CHECK_LE(count, n);
  if (count > 0) {
    PEEGA_CHECK_GE(offsets[0], 0);
    PEEGA_CHECK_LT(offsets[count - 1], n);
  }
  for (int64_t i = 1; i < count; ++i) {
    PEEGA_DCHECK(offsets[i - 1] < offsets[i])
        << " — offsets must ascend strictly, at " << i;
  }
  kernels::BernoulliAtTable().Select()(state_, &index_, cut.cut(),
                                       cut.always(), offsets, count, outcome,
                                       n);
}

std::ostream& operator<<(std::ostream& out, const Mt19937_64& engine) {
  const std::ios_base::fmtflags flags = out.flags();
  const char fill = out.fill();
  out.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  out.fill(' ');
  for (const uint64_t word : engine.state_) out << word << ' ';
  out << engine.index_;
  out.flags(flags);
  out.fill(fill);
  return out;
}

namespace {

// One whitespace-delimited token of decimal digits that fits 64 bits.
bool ReadWord(std::istream& in, uint64_t* value) {
  std::string token;
  if (!(in >> token)) return false;
  const char* end = token.data() + token.size();
  const std::from_chars_result parsed =
      std::from_chars(token.data(), end, *value);
  // from_chars takes no sign for an unsigned type.
  return parsed.ec == std::errc() && parsed.ptr == end;
}

}  // namespace

std::istream& operator>>(std::istream& in, Mt19937_64& engine) {
  uint64_t state[Mt19937_64::kStateWords];
  uint64_t index = 0;
  bool ok = true;
  for (uint64_t& word : state) ok = ok && ReadWord(in, &word);
  // The position must end the text: `in >> token` stops at the first
  // character after it, so a stream not at its end holds more.
  ok = ok && ReadWord(in, &index) &&
       index <= static_cast<uint64_t>(Mt19937_64::kStateWords) && in.eof();
  if (!ok) {
    in.setstate(std::ios_base::failbit);
    return in;
  }
  std::memcpy(engine.state_, state, sizeof(state));
  engine.index_ = static_cast<int>(index);
  return in;
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
