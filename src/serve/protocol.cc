#include "serve/protocol.h"

#include <sys/socket.h>

#include <cstring>
#include <utility>

#include "eval/op_schema.h"
#include "obs/record.h"

namespace repro::serve {

namespace {

using obs::Json;

bool ValidTenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 32) return false;
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

status::Status BadField(const std::string& key, const std::string& why) {
  return status::InvalidInput("field \"" + key + "\": " + why);
}

// Reads member `key` with the strict reader `read` when present (absent
// keeps `*out`); a member of another kind is INVALID_INPUT naming it.
template <typename T>
status::Status Read(const Json& object, const std::string& key,
                    bool (*read)(const Json&, const std::string&, T*,
                                 std::string*),
                    T* out) {
  std::string error;
  if (object.Find(key) == nullptr || read(object, key, out, &error)) {
    return status::Status::Ok();
  }
  return status::InvalidInput(error);
}

// An integer-valued number, exact as a double (|v| < 2^53).
bool ReadExactInteger(const Json& object, const std::string& key,
                      int64_t* out, std::string* error) {
  return obs::ReadInteger(object, key, -obs::kMaxExactInteger,
                          obs::kMaxExactInteger, out, error);
}

}  // namespace

status::Status ParseRequest(const std::string& line, Request* out) {
  Json object;
  std::string error;
  if (!obs::Json::Parse(line, &object, &error)) {
    return status::InvalidInput("bad request JSON: " + error);
  }
  return ParseRequest(std::move(object), out);
}

status::Status ParseRequest(obs::Json object, Request* out) {
  out->raw = std::move(object);
  if (out->raw.type != obs::Json::Type::kObject) {
    return status::InvalidInput("request must be a JSON object");
  }
  out->id = 0;
  PEEGA_RETURN_IF_ERROR(Read(out->raw, "id", ReadExactInteger, &out->id),
                        "request");
  out->op.clear();
  PEEGA_RETURN_IF_ERROR(Read(out->raw, "op", obs::ReadString, &out->op),
                        "request");
  if (out->op.empty()) {
    return status::InvalidInput("request has no \"op\"");
  }
  out->tenant = "default";
  PEEGA_RETURN_IF_ERROR(
      Read(out->raw, "tenant", obs::ReadString, &out->tenant), "request");
  if (!ValidTenant(out->tenant)) {
    return status::InvalidInput("bad tenant name (want 1-32 chars of "
                                "[A-Za-z0-9_-])");
  }
  return status::Status::Ok();
}

status::Status ParseJob(const Request& request, JobRequest* out) {
  const bool attack = request.op == "attack";
  if (!attack && request.op != "eval") {
    return status::InvalidInput("op \"" + request.op + "\" is not a job");
  }
  const Json& raw = request.raw;
  PEEGA_RETURN_IF_ERROR(Read(raw, "graph", obs::ReadString, &out->graph),
                        "job");
  if (out->graph.empty()) {
    return BadField("graph", "required").WithContext("job");
  }
  PEEGA_RETURN_IF_ERROR(
      Read(raw, "deadline_ms", obs::ReadFinite, &out->deadline_ms), "job");
  if (raw.Find("deadline_ms") != nullptr && !(out->deadline_ms > 0.0)) {
    return BadField("deadline_ms", "must be a finite number > 0")
        .WithContext("job");
  }
  // What is left without the envelope and the job fields is the op's.
  Json fields = raw;
  for (const char* key : {"id", "tenant", "op", "graph", "deadline_ms"}) {
    fields.object.erase(key);
  }
  if (!attack) return eval::ReadJson(fields, &out->eval).WithContext("job");
  PEEGA_RETURN_IF_ERROR(Read(raw, "out", obs::ReadString, &out->out), "job");
  PEEGA_RETURN_IF_ERROR(
      Read(raw, "return_flips", obs::ReadBool, &out->return_flips), "job");
  fields.object.erase("out");
  fields.object.erase("return_flips");
  return eval::ReadJson(fields, &out->attack).WithContext("job");
}

status::StatusOr<int64_t> CancelTarget(const Request& request) {
  if (request.raw.Find("target_id") == nullptr) {
    return BadField("target_id", "required").WithContext("request");
  }
  int64_t target = 0;
  PEEGA_RETURN_IF_ERROR(
      Read(request.raw, "target_id", ReadExactInteger, &target), "request");
  return target;
}

obs::Json MakeResponse(int64_t id, const std::string& tenant,
                       const status::Status& status) {
  obs::Json response = obs::Json::MakeObject();
  response.object["id"] = obs::Json::MakeNumber(static_cast<double>(id));
  response.object["tenant"] = obs::Json::MakeString(tenant);
  response.object["ok"] = obs::Json::MakeBool(status.ok());
  response.object["code"] =
      obs::Json::MakeString(status::CodeName(status.code()));
  if (!status.ok()) {
    response.object["error"] = obs::Json::MakeString(status.message());
  }
  return response;
}

status::Status UnixAddress(const std::string& socket_path, sockaddr_un* out) {
  std::memset(out, 0, sizeof(*out));
  if (socket_path.empty() || socket_path.size() >= sizeof(out->sun_path)) {
    return status::InvalidInput("bad socket path \"" + socket_path + "\"");
  }
  out->sun_family = AF_UNIX;
  std::memcpy(out->sun_path, socket_path.c_str(), socket_path.size());
  return status::Status::Ok();
}

std::string EncodeLine(const obs::Json& message) {
  return message.Dump() + "\n";
}

std::string GetString(const obs::Json& object, const std::string& key,
                      const std::string& fallback) {
  const obs::Json* value = object.Find(key);
  if (value == nullptr || value->type != obs::Json::Type::kString) {
    return fallback;
  }
  return value->string_value;
}

double GetNumber(const obs::Json& object, const std::string& key,
                 double fallback) {
  const obs::Json* value = object.Find(key);
  if (value == nullptr || value->type != obs::Json::Type::kNumber) {
    return fallback;
  }
  return value->number_value;
}

bool GetBool(const obs::Json& object, const std::string& key,
             bool fallback) {
  const obs::Json* value = object.Find(key);
  if (value == nullptr || value->type != obs::Json::Type::kBool) {
    return fallback;
  }
  return value->bool_value;
}

}  // namespace repro::serve
