#ifndef PEEGA_OBS_CRC32_H_
#define PEEGA_OBS_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace repro::obs {

/// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320) over `size` bytes.
/// Table-driven, no dependencies. The seal of obs/record.h, the
/// per-record integrity check of the serve journal and of PEEGA
/// checkpoint files.
uint32_t Crc32(const void* data, size_t size);

inline uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

}  // namespace repro::obs

#endif  // PEEGA_OBS_CRC32_H_
