// AVX2 kernel variants. Compiled with -mavx2 -ffp-contract=off in its
// own translation unit (never on the baseline tree) and reached only
// through the dispatch tables after a CPUID check.
//
// Bitwise-equality discipline (DESIGN.md, "Kernel dispatch &
// determinism classes"): every vector lane owns ONE output element and
// replays the generic kernel's accumulation sequence for that element —
// saxpy kernels vectorize across the contiguous j (output-column) loop;
// the dot kernel keeps the ascending-k scan per output and spreads the
// 16 outputs of a packed B panel across two vectors, for up to four A
// rows at once (a register tile); the sparse-B dot packs 8 A rows and
// gives each lane one A row's chain over a B row's stored entries.
// Multiplies and adds round separately (_mm256_mul_ps + _mm256_add_ps,
// never _mm256_fmadd_ps): the baseline x86-64 scalar reference has no
// FMA, so a fused variant would differ in the last bit and flip greedy
// argmax decisions. Scalar tails reuse the exact generic expressions.
//
// The Bernoulli mask kernel has no floats to round: its lanes are four
// consecutive MT19937-64 stream positions, twisted, tempered and
// compared as 64-bit integers, each the generic kernel's value for its
// position. The listed-offset kernel shares its vector twist.
//
// The pair-score kernel gives each lane one candidate of the run and
// replays the generic expression for it; the fixed endpoint's terms
// are broadcast.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/kernels/mt64.h"
#include "linalg/kernels/variants.h"

namespace repro::linalg::kernels::avx2 {

namespace {

// crow[j] += av * brow[j] for j in [0, n) — the shared saxpy inner loop
// of MatMulRows / SpMMRows. Lane l handles element
// j + l; per element the operation sequence equals the scalar loop.
inline void AxpyRow(float av, const float* brow, float* crow, int n) {
  const __m256 vav = _mm256_set1_ps(av);
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(brow + j);
    const __m256 vc = _mm256_loadu_ps(crow + j);
    _mm256_storeu_ps(crow + j, _mm256_add_ps(vc, _mm256_mul_ps(vav, vb)));
  }
  for (; j < n; ++j) crow[j] += av * brow[j];
}

// Rows per register tile: 4 rows × 2 vectors = 8 independent
// accumulator chains, enough to hide the add latency without spilling.
constexpr int kTileRows = 4;

// Copies the 8 rows src[0, 8) (nullptr: a row of zeros) of length k
// into `dst` k-major, dst[kk·stride + l] = src[l][kk], in 8×8 blocks: 8
// row loads, an in-register transpose, 8 stores. With kCheck it also
// returns the mask of rows holding a NaN or ±Inf, read off the same
// loads; without it, 0.
template <bool kCheck>
uint32_t PackBlock8(const float* const (&src)[8], int k, float* dst,
                    int stride) {
  const auto row = [&](int l, int kk) {
    return src[l] != nullptr ? _mm256_loadu_ps(src[l] + kk)
                             : _mm256_setzero_ps();
  };
  // |x| >= Inf, or unordered: all ones for NaN and ±Inf.
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 bad[8] = {};
  int kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    // r[l] holds row l at k-steps kk..kk+7; after the transpose t[j]
    // holds rows 0..7 at k-step kk + j.
    const __m256 r[8] = {row(0, kk), row(1, kk), row(2, kk), row(3, kk),
                         row(4, kk), row(5, kk), row(6, kk), row(7, kk)};
    if constexpr (kCheck) {
      for (int l = 0; l < 8; ++l) {
        bad[l] = _mm256_or_ps(
            bad[l], _mm256_cmp_ps(_mm256_and_ps(r[l], abs_mask), inf,
                                  _CMP_NLT_UQ));
      }
    }
    const __m256 u0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 u1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 u2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 u3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 u4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 u5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 u6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 u7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 v0 = _mm256_shuffle_ps(u0, u2, 0x44);
    const __m256 v1 = _mm256_shuffle_ps(u0, u2, 0xEE);
    const __m256 v2 = _mm256_shuffle_ps(u1, u3, 0x44);
    const __m256 v3 = _mm256_shuffle_ps(u1, u3, 0xEE);
    const __m256 v4 = _mm256_shuffle_ps(u4, u6, 0x44);
    const __m256 v5 = _mm256_shuffle_ps(u4, u6, 0xEE);
    const __m256 v6 = _mm256_shuffle_ps(u5, u7, 0x44);
    const __m256 v7 = _mm256_shuffle_ps(u5, u7, 0xEE);
    const __m256 t[8] = {
        _mm256_permute2f128_ps(v0, v4, 0x20),
        _mm256_permute2f128_ps(v1, v5, 0x20),
        _mm256_permute2f128_ps(v2, v6, 0x20),
        _mm256_permute2f128_ps(v3, v7, 0x20),
        _mm256_permute2f128_ps(v0, v4, 0x31),
        _mm256_permute2f128_ps(v1, v5, 0x31),
        _mm256_permute2f128_ps(v2, v6, 0x31),
        _mm256_permute2f128_ps(v3, v7, 0x31)};
    float* out = dst + static_cast<int64_t>(kk) * stride;
    for (int j = 0; j < 8; ++j) _mm256_storeu_ps(out + j * stride, t[j]);
  }
  uint32_t non_finite = 0;
  for (int l = 0; l < 8; ++l) {
    if (_mm256_movemask_ps(bad[l]) != 0) non_finite |= uint32_t{1} << l;
  }
  for (; kk < k; ++kk) {
    float* out = dst + static_cast<int64_t>(kk) * stride;
    for (int l = 0; l < 8; ++l) {
      out[l] = src[l] != nullptr ? src[l][kk] : 0.0f;
      if (kCheck && !std::isfinite(out[l])) non_finite |= uint32_t{1} << l;
    }
  }
  return non_finite;
}

// Copies B rows cols[0, num_cols) into `panel` k-major,
// panel[kk·kDotPanelWidth + l] = b[cols[l]·k + kk], so one k-step of a
// tile is two contiguous loads. Lanes past num_cols are zeroed: their
// results are discarded, and zeros keep them finite.
void PackPanel(const float* b, const int* cols, int num_cols, int k,
               float* panel) {
  for (int l0 = 0; l0 < kDotPanelWidth; l0 += 8) {
    const float* brow[8] = {};
    for (int l = 0; l < 8 && l0 + l < num_cols; ++l) {
      brow[l] = b + static_cast<int64_t>(cols[l0 + l]) * k;
    }
    PackBlock8<false>(brow, k, panel + l0, kDotPanelWidth);
  }
}

// One k-step of one tile row: acc[v] += a · b_v for the NV panel vectors.
template <int NV>
inline void MulAdd(__m256 (&acc)[2], const float* a, __m256 b0, __m256 b1) {
  const __m256 va = _mm256_broadcast_ss(a);
  acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(va, b0));
  if (NV == 2) acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(va, b1));
}

// Writes one tile row's real columns to C.
template <int NV>
inline void StoreRow(const __m256 (&acc)[2], const int* cols, int num_cols,
                     float* crow) {
  alignas(32) float lanes[kDotPanelWidth];
  _mm256_store_ps(lanes, acc[0]);
  if (NV == 2) _mm256_store_ps(lanes + 8, acc[1]);
  for (int l = 0; l < num_cols; ++l) crow[cols[l]] = lanes[l];
}

// An MR × 8·NV register tile: lane l of acc[r][v] runs the ascending-k
// chain of output (rows[r], cols[8v + l]) — the generic reference's
// scalar chain for that output, mul and add rounded separately. Rows
// are written out by constant index so the accumulators stay in
// registers.
template <int MR, int NV>
void DotTile(const float* a, const int* rows, const float* panel,
             const int* cols, int num_cols, int k, float* c, int64_t ldc) {
  const float* arow[kTileRows] = {};
  for (int r = 0; r < MR; ++r) arow[r] = a + static_cast<int64_t>(rows[r]) * k;
  __m256 acc[kTileRows][2] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* p = panel + static_cast<int64_t>(kk) * kDotPanelWidth;
    const __m256 b0 = _mm256_loadu_ps(p);
    const __m256 b1 = NV == 2 ? _mm256_loadu_ps(p + 8) : b0;
    MulAdd<NV>(acc[0], arow[0] + kk, b0, b1);
    if (MR > 1) MulAdd<NV>(acc[1], arow[1] + kk, b0, b1);
    if (MR > 2) MulAdd<NV>(acc[2], arow[2] + kk, b0, b1);
    if (MR > 3) MulAdd<NV>(acc[3], arow[3] + kk, b0, b1);
  }
  StoreRow<NV>(acc[0], cols, num_cols, c + rows[0] * ldc);
  if (MR > 1) StoreRow<NV>(acc[1], cols, num_cols, c + rows[1] * ldc);
  if (MR > 2) StoreRow<NV>(acc[2], cols, num_cols, c + rows[2] * ldc);
  if (MR > 3) StoreRow<NV>(acc[3], cols, num_cols, c + rows[3] * ldc);
}

template <int NV>
void DotPanelRows(const float* a, const int* rows, int64_t num_rows,
                  const float* panel, const int* cols, int num_cols, int k,
                  float* c, int64_t ldc) {
  int64_t i = 0;
  for (; i + kTileRows <= num_rows; i += kTileRows) {
    DotTile<kTileRows, NV>(a, rows + i, panel, cols, num_cols, k, c, ldc);
  }
  switch (num_rows - i) {
    case 3:
      DotTile<3, NV>(a, rows + i, panel, cols, num_cols, k, c, ldc);
      break;
    case 2:
      DotTile<2, NV>(a, rows + i, panel, cols, num_cols, k, c, ldc);
      break;
    case 1:
      DotTile<1, NV>(a, rows + i, panel, cols, num_cols, k, c, ldc);
      break;
    default:
      break;
  }
}

// One stored entry of a B row: acc += P[col] · value, the packed tile's
// k-step `col` times the entry, mul and add rounded separately.
inline __m256 AddEntry(__m256 acc, const float* panel, const StoredEntry& e) {
  const __m256 p =
      _mm256_loadu_ps(panel + static_cast<int64_t>(e.col) * kSparseDotTile);
  return _mm256_add_ps(acc, _mm256_mul_ps(p, _mm256_set1_ps(e.value)));
}

// Writes lane t of `acc` to c[rows[t]·ldc + col] for the tile's finite
// rows.
inline void StoreColumn(__m256 acc, const int* rows, int num_rows,
                        uint32_t skip, float* c, int64_t ldc, int col) {
  alignas(32) float lanes[kSparseDotTile];
  _mm256_store_ps(lanes, acc);
  for (int t = 0; t < num_rows; ++t) {
    if (((skip >> t) & 1) == 0) c[rows[t] * ldc + col] = lanes[t];
  }
}

// MT19937-64 helpers for BernoulliMask. Internal linkage, so these
// AVX2-compiled copies never stand in for the engine's own scalar code.
namespace mt = mt64;

inline __m256i Splat(uint64_t value) {
  return _mm256_set1_epi64x(static_cast<int64_t>(value));
}

// y = upper bits of `word` | lower bits of `next`; returns
// (y >> 1) ^ (y odd ? A : 0), the twist's mix of two adjacent words.
inline __m256i Mix(__m256i word, __m256i next) {
  const __m256i y =
      _mm256_or_si256(_mm256_and_si256(word, Splat(mt::kUpperMask)),
                      _mm256_and_si256(next, Splat(mt::kLowerMask)));
  // 0 - (y & 1): all ones for an odd y.
  const __m256i odd =
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, Splat(1)));
  return _mm256_xor_si256(_mm256_srli_epi64(y, 1),
                          _mm256_and_si256(odd, Splat(mt::kMatrixA)));
}

inline uint64_t MixScalar(uint64_t word, uint64_t next) {
  const uint64_t y = (word & mt::kUpperMask) | (next & mt::kLowerMask);
  return (y >> 1) ^ ((y & 1) != 0 ? mt::kMatrixA : 0);
}

// The twist, four words per vector. Word k of the new block reads old
// words k and k + 1 and word k + 156 (mod 312); for k < 156 that word
// is still old, for k >= 156 it is new and was written by the first
// half. No lane reads a word another lane of its vector writes, so both
// halves vectorize; only the last word, whose neighbour wraps to the
// new word 0, is scalar.
void Twist(uint64_t* block) {
  constexpr int kHalf = mt::kWords - mt::kShift;
  static_assert(kHalf % 4 == 0 && mt::kShift % 4 == 0);
  const auto step = [block](int k, int from) {
    const __m256i word = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + k));
    const __m256i next = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + k + 1));
    const __m256i far = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + from));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + k),
                        _mm256_xor_si256(far, Mix(word, next)));
  };
  int k = 0;
  for (; k < kHalf; k += 4) step(k, k + mt::kShift);
  for (; k + 4 < mt::kWords; k += 4) step(k, k - kHalf);
  for (; k < mt::kWords - 1; ++k) {
    block[k] = block[k - kHalf] ^ MixScalar(block[k], block[k + 1]);
  }
  block[mt::kWords - 1] =
      block[mt::kShift - 1] ^ MixScalar(block[mt::kWords - 1], block[0]);
}

inline __m256i Temper(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, mt::kTemperU),
                                           Splat(mt::kTemperD)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, mt::kTemperS),
                                           Splat(mt::kTemperB)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, mt::kTemperT),
                                           Splat(mt::kTemperC)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, mt::kTemperL));
}

inline uint64_t TemperScalar(uint64_t z) {
  z ^= (z >> mt::kTemperU) & mt::kTemperD;
  z ^= (z << mt::kTemperS) & mt::kTemperB;
  z ^= (z << mt::kTemperT) & mt::kTemperC;
  return z ^ (z >> mt::kTemperL);
}

}  // namespace

void MatMulRows(const float* a, const float* b, float* c, int64_t r0,
                int64_t r1, int k, int n) {
  constexpr int kBlock = 64;
  for (int k0 = 0; k0 < k; k0 += kBlock) {
    const int k1 = std::min(k0 + kBlock, k);
    for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
      const float* arow = a + static_cast<int64_t>(i) * k;
      float* crow = c + static_cast<int64_t>(i) * n;
      for (int kk = k0; kk < k1; ++kk) {
        const float av = arow[kk];
        if (av == 0.0f) continue;
        AxpyRow(av, b + static_cast<int64_t>(kk) * n, crow, n);
      }
    }
  }
}

void MatMulTransACols(const float* a, const float* b, float* c, int64_t j0,
                      int64_t j1, int k_rows, int m, int n) {
  const int jb = static_cast<int>(j0);
  const int je = static_cast<int>(j1);
  for (int kk = 0; kk < k_rows; ++kk) {
    const float* arow = a + static_cast<int64_t>(kk) * m;
    const float* brow = b + static_cast<int64_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<int64_t>(i) * n;
      const __m256 vav = _mm256_set1_ps(av);
      int j = jb;
      for (; j + 8 <= je; j += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + j);
        const __m256 vc = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j, _mm256_add_ps(vc, _mm256_mul_ps(vav, vb)));
      }
      for (; j < je; ++j) crow[j] += av * brow[j];
    }
  }
}

void SpMMRows(const int64_t* row_ptr, const int* col_idx, const float* values,
              const float* b, float* c, int64_t r0, int64_t r1, int n) {
  for (int i = static_cast<int>(r0); i < static_cast<int>(r1); ++i) {
    float* crow = c + static_cast<int64_t>(i) * n;
    for (int64_t kk = row_ptr[i]; kk < row_ptr[i + 1]; ++kk) {
      AxpyRow(values[kk], b + static_cast<int64_t>(col_idx[kk]) * n, crow, n);
    }
  }
}

void DotPanel(const float* a, const int* rows, int64_t num_rows,
              const float* b, const int* cols, int num_cols, int k, float* c,
              int64_t ldc, float* panel) {
  PackPanel(b, cols, num_cols, k, panel);
  // A panel of at most 8 real columns needs only its first vector.
  if (num_cols <= 8) {
    DotPanelRows<1>(a, rows, num_rows, panel, cols, num_cols, k, c, ldc);
  } else {
    DotPanelRows<2>(a, rows, num_rows, panel, cols, num_cols, k, c, ldc);
  }
}

uint32_t SparseDotTile(const float* a, const int* rows, int num_rows, int k,
                       const EntryRow* b, const int* cols, int64_t num_cols,
                       float* c, int64_t ldc, float* panel) {
  const float* arow[kSparseDotTile] = {};
  for (int t = 0; t < num_rows; ++t) {
    arow[t] = a + static_cast<int64_t>(rows[t]) * k;
  }
  const uint32_t non_finite = PackBlock8<true>(arow, k, panel, kSparseDotTile);
  // Lane t of a column's accumulator runs the generic chain of output
  // (rows[t], cols[l]). Four columns walk their entries side by side,
  // so four add chains overlap; each then finishes alone.
  constexpr int kColumns = 4;
  int64_t l = 0;
  for (; l + kColumns <= num_cols; l += kColumns) {
    __m256 acc[kColumns] = {};
    int64_t common = b[l].count;
    for (int q = 1; q < kColumns; ++q) {
      common = std::min(common, b[l + q].count);
    }
    const StoredEntry* e0 = b[l].entries;
    const StoredEntry* e1 = b[l + 1].entries;
    const StoredEntry* e2 = b[l + 2].entries;
    const StoredEntry* e3 = b[l + 3].entries;
    for (int64_t i = 0; i < common; ++i) {
      acc[0] = AddEntry(acc[0], panel, e0[i]);
      acc[1] = AddEntry(acc[1], panel, e1[i]);
      acc[2] = AddEntry(acc[2], panel, e2[i]);
      acc[3] = AddEntry(acc[3], panel, e3[i]);
    }
    for (int q = 0; q < kColumns; ++q) {
      const EntryRow& row = b[l + q];
      for (int64_t i = common; i < row.count; ++i) {
        acc[q] = AddEntry(acc[q], panel, row.entries[i]);
      }
      StoreColumn(acc[q], rows, num_rows, non_finite, c, ldc, cols[l + q]);
    }
  }
  for (; l < num_cols; ++l) {
    __m256 acc = _mm256_setzero_ps();
    for (int64_t i = 0; i < b[l].count; ++i) {
      acc = AddEntry(acc, panel, b[l].entries[i]);
    }
    StoreColumn(acc, rows, num_rows, non_finite, c, ldc, cols[l]);
  }
  return non_finite;
}

void BernoulliMask(uint64_t* block, int* index, uint64_t cut, bool always,
                   const float* entry, float* out, int64_t n) {
  // v < cut as unsigned is (v ^ 2^63) < (cut ^ 2^63) as signed, the
  // compare AVX2 has. Hits (all-ones 64-bit lanes) are narrowed to the
  // four 32-bit lanes that select between the two entries.
  const __m256i sign = Splat(uint64_t{1} << 63);
  const __m256i signed_cut = _mm256_xor_si256(Splat(cut), sign);
  const __m256i all = Splat(always ? ~uint64_t{0} : 0);
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m128 miss = _mm_set1_ps(entry[0]);
  const __m128 hit = _mm_set1_ps(entry[1]);
  int at = *index;
  int64_t i = 0;
  while (i < n) {
    if (at == mt::kWords) {
      Twist(block);
      at = 0;
    }
    const int64_t end = i + std::min<int64_t>(n - i, mt::kWords - at);
    for (; i + 4 <= end; i += 4, at += 4) {
      const __m256i v = Temper(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + at)));
      const __m256i below =
          _mm256_or_si256(all, _mm256_cmpgt_epi64(
                                   signed_cut, _mm256_xor_si256(v, sign)));
      const __m128 select = _mm_castsi128_ps(_mm256_castsi256_si128(
          _mm256_permutevar8x32_epi32(below, low_halves)));
      _mm_storeu_ps(out + i, _mm_blendv_ps(miss, hit, select));
    }
    for (; i < end; ++i) {
      const uint64_t v = TemperScalar(block[at++]);
      out[i] = entry[always || v < cut];
    }
  }
  *index = at;
}

void BernoulliAt(uint64_t* block, int* index, uint64_t cut, bool always,
                 const int64_t* offsets, int64_t count, uint8_t* outcome,
                 int64_t n) {
  // The generic walk with the vector twist: at a few percent of the
  // values listed, the twists of the blocks crossed are the work.
  int at = *index;
  int64_t first = 0;  // stream offset of block[at]
  int64_t i = 0;
  while (first < n) {
    if (at == mt::kWords) {
      Twist(block);
      at = 0;
    }
    const int64_t end = std::min<int64_t>(n, first + (mt::kWords - at));
    for (; i < count && offsets[i] < end; ++i) {
      const uint64_t v = TemperScalar(block[at + (offsets[i] - first)]);
      outcome[i] = always || v < cut;
    }
    at += static_cast<int>(end - first);
    first = end;
  }
  *index = at;
}

void PairScores(PairScoreForm form, const PairScoreRun& run, float* out,
                int64_t n) {
  const __m256 s = _mm256_set1_ps(run.fixed_scale);
  const __m256 d = _mm256_set1_ps(run.fixed_ddeg);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  int64_t i = 0;
  switch (form) {
    case PairScoreForm::kRow:
      for (; i + 8 <= n; i += 8) {
        const __m256 so = _mm256_loadu_ps(run.scale + i);
        const __m256 first = _mm256_add_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(run.x + i), so), s),
            d);
        const __m256 second = _mm256_add_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(run.y + i), s), so),
            _mm256_loadu_ps(run.ddeg + i));
        _mm256_storeu_ps(out + i, _mm256_add_ps(first, second));
      }
      break;
    case PairScoreForm::kColumn:
      for (; i + 8 <= n; i += 8) {
        const __m256 su = _mm256_loadu_ps(run.scale + i);
        const __m256 first = _mm256_add_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(run.x + i), s), su),
            _mm256_loadu_ps(run.ddeg + i));
        const __m256 second = _mm256_add_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(run.y + i), su), s),
            d);
        _mm256_storeu_ps(out + i, _mm256_add_ps(first, second));
      }
      break;
    case PairScoreForm::kFeature:
      for (; i + 8 <= n; i += 8) {
        const __m256 direction =
            _mm256_sub_ps(one, _mm256_mul_ps(two, _mm256_loadu_ps(run.x + i)));
        _mm256_storeu_ps(
            out + i,
            _mm256_div_ps(
                _mm256_mul_ps(direction, _mm256_loadu_ps(run.y + i)), s));
      }
      break;
  }
  if (i == n) return;
  // The tail: the generic kernel on the rest of the run.
  const PairScoreRun rest = {
      run.x + i, run.y + i,
      run.scale != nullptr ? run.scale + i : nullptr,
      run.ddeg != nullptr ? run.ddeg + i : nullptr,
      run.fixed_scale, run.fixed_ddeg};
  generic::PairScores(form, rest, out + i, n - i);
}

}  // namespace repro::linalg::kernels::avx2
