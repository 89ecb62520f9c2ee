#include "obs/record.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "obs/crc32.h"

namespace repro::obs {

namespace {

// Sets `*error` to "`what`: <strerror(errno)>" and returns false.
bool Errno(const std::string& what, std::string* error) {
  *error = what + ": " + std::strerror(errno);
  return false;
}

bool Expected(const std::string& key, const std::string& kind,
              std::string* error) {
  *error = "field \"" + key + "\": expected " + kind;
  return false;
}

// False with errno set when a write fails.
bool WriteAll(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

// fsync the directory so a rename survives a power cut. Best-effort: a
// filesystem that refuses O_DIRECTORY fsync does not fail the replace.
void SyncDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

std::string Seal(Json record) {
  const uint32_t crc = Crc32(record.Dump());
  record.object["crc"] = Json::MakeNumber(static_cast<double>(crc));
  return record.Dump() + "\n";
}

Unsealed Unseal(const std::string& text, Json* record, std::string* error) {
  if (!Json::Parse(text, record, error)) return Unsealed::kMalformed;
  if (record->type != Json::Type::kObject) {
    *error = "not a JSON object";
    return Unsealed::kMalformed;
  }
  int64_t stored = 0;
  if (!ReadInteger(*record, "crc", 0, 0xFFFFFFFFll, &stored, error)) {
    return Unsealed::kMalformed;
  }
  record->object.erase("crc");
  const uint32_t computed = Crc32(record->Dump());
  if (stored != computed) {
    *error = "crc mismatch (stored " + std::to_string(stored) +
             ", computed " + std::to_string(computed) + ")";
    return Unsealed::kCrcMismatch;
  }
  return Unsealed::kOk;
}

bool ReadInteger(const Json& object, const std::string& key, int64_t lo,
                 int64_t hi, int64_t* out, std::string* error) {
  const Json* member = object.Find(key);
  const double v = member == nullptr ? 0.0 : member->number_value;
  // NaN fails both comparisons, so the cast only sees exact integers
  // within ±2^53.
  if (member == nullptr || member->type != Json::Type::kNumber ||
      !(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
      v != std::trunc(v)) {
    return Expected(key, "an integer in [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + "]",
                    error);
  }
  *out = static_cast<int64_t>(v);
  return true;
}

bool ReadFinite(const Json& object, const std::string& key, double* out,
                std::string* error) {
  const Json* member = object.Find(key);
  if (member == nullptr || member->type != Json::Type::kNumber ||
      !std::isfinite(member->number_value)) {
    return Expected(key, "a finite number", error);
  }
  *out = member->number_value;
  return true;
}

bool ReadString(const Json& object, const std::string& key,
                std::string* out, std::string* error) {
  const Json* member = object.Find(key);
  if (member == nullptr || member->type != Json::Type::kString) {
    return Expected(key, "a string", error);
  }
  *out = member->string_value;
  return true;
}

bool ReadBool(const Json& object, const std::string& key, bool* out,
              std::string* error) {
  const Json* member = object.Find(key);
  if (member == nullptr || member->type != Json::Type::kBool) {
    return Expected(key, "a bool", error);
  }
  *out = member->bool_value;
  return true;
}

bool ReplaceFile(const std::string& path, const std::string& bytes,
                 std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open " + tmp, error);
  bool ok = WriteAll(fd, bytes) || Errno("write " + tmp, error);
  if (ok && ::fsync(fd) != 0) ok = Errno("fsync " + tmp, error);
  if (::close(fd) != 0 && ok) ok = Errno("close " + tmp, error);
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
    ok = Errno("rename " + tmp + " to " + path, error);
  }
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  SyncDir(path);
  return true;
}

bool AppendDurably(int fd, const std::string& bytes, std::string* error) {
  if (!WriteAll(fd, bytes)) return Errno("write", error);
  if (::fsync(fd) != 0) return Errno("fsync", error);
  return true;
}

}  // namespace repro::obs
