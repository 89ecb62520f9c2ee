#ifndef PEEGA_OBS_RECORD_H_
#define PEEGA_OBS_RECORD_H_

#include <cstdint>
#include <string>

#include "obs/json.h"

namespace repro::obs {

/// Sealed records: the one on-disk format of the serve journal (one
/// record per line) and of PEEGA checkpoints (one record per file). A
/// sealed record is a JSON object whose "crc" member is the CRC32 of the
/// object dumped without it; obs::Json keys are map-ordered, so those
/// bytes are stable. Like Json::Parse (this layer sits below status/),
/// failures are a result plus a message that each format maps onto its
/// own status codes.

/// `record` (an object without a "crc" member) sealed and serialised,
/// newline-terminated.
std::string Seal(Json record);

enum class Unsealed { kOk, kMalformed, kCrcMismatch };

/// Parses `text` (surrounding whitespace allowed) and checks the seal.
/// kMalformed: not JSON, not an object, or "crc" missing or not an
/// integer in [0, 2^32). kCrcMismatch: "crc" does not match. On kOk,
/// `*record` is the object without its "crc" member; otherwise `*error`
/// says what is wrong.
Unsealed Unseal(const std::string& text, Json* record, std::string* error);

/// Largest magnitude at which every integer is exact as a double.
inline constexpr int64_t kMaxExactInteger = (int64_t{1} << 53) - 1;

/// Strict member reads: the member must be present and of the stated
/// kind (for ReadInteger an exact integer in [lo, hi], bounds within
/// ±kMaxExactInteger), else false with an error naming `key`.
bool ReadInteger(const Json& object, const std::string& key, int64_t lo,
                 int64_t hi, int64_t* out, std::string* error);
bool ReadFinite(const Json& object, const std::string& key, double* out,
                std::string* error);
bool ReadString(const Json& object, const std::string& key,
                std::string* out, std::string* error);
bool ReadBool(const Json& object, const std::string& key, bool* out,
              std::string* error);

/// Durably replaces `path` with `bytes`: write `path`.tmp in full,
/// fsync it, rename it over `path`, fsync the directory. After a crash
/// at any point `path` holds either its previous or its new contents.
bool ReplaceFile(const std::string& path, const std::string& bytes,
                 std::string* error);

/// Appends `bytes` to the open descriptor `fd` in full and fsyncs it.
bool AppendDurably(int fd, const std::string& bytes, std::string* error);

}  // namespace repro::obs

#endif  // PEEGA_OBS_RECORD_H_
