#ifndef PEEGA_LINALG_KERNELS_MT64_H_
#define PEEGA_LINALG_KERNELS_MT64_H_

#include <cstdint>

// The MT19937-64 parameter set (std::mt19937_64's) shared by the scalar
// engine `linalg::Mt19937_64` and the vector twist of the AVX2 mask
// kernel. Constants only: this header is included by the AVX2
// translation unit, which must not instantiate inline functions that
// baseline code could end up calling.

namespace repro::linalg::kernels::mt64 {

/// Words in one state block; the twist regenerates all of them.
inline constexpr int kWords = 312;
/// Word k of a new block mixes words k and k + 1 of the old one with
/// word k + kShift (mod kWords), so the first kWords - kShift words read
/// only old words and the rest only new ones.
inline constexpr int kShift = 156;
inline constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
inline constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
inline constexpr uint64_t kLowerMask = ~kUpperMask;
/// Seeding recurrence multiplier.
inline constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;
/// Tempering: shifts and masks, applied in this order.
inline constexpr int kTemperU = 29;
inline constexpr uint64_t kTemperD = 0x5555555555555555ULL;
inline constexpr int kTemperS = 17;
inline constexpr uint64_t kTemperB = 0x71d67fffeda60000ULL;
inline constexpr int kTemperT = 37;
inline constexpr uint64_t kTemperC = 0xfff7eee000000000ULL;
inline constexpr int kTemperL = 43;

}  // namespace repro::linalg::kernels::mt64

#endif  // PEEGA_LINALG_KERNELS_MT64_H_
