#include "serve/protocol.h"

#include <cmath>
#include <utility>

#include "eval/op_schema.h"

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

const char* TypeName(Json::Type type) {
  switch (type) {
    case Json::Type::kString:
      return "a string";
    case Json::Type::kNumber:
      return "a number";
    case Json::Type::kBool:
      return "a bool";
    default:
      return "another type";
  }
}

status::Status BadField(const std::string& key, const std::string& why) {
  return status::InvalidInput("field \"" + key + "\": " + why);
}

// Copies member `key` of `object` into `*out` when present; a member of
// another type is INVALID_INPUT naming it.
template <typename T>
status::Status Read(const Json& object, const std::string& key,
                    Json::Type type, T Json::*value, T* out) {
  const Json* member = object.Find(key);
  if (member == nullptr) return status::Status::Ok();
  if (member->type != type) {
    return BadField(key, std::string("expected ") + TypeName(type));
  }
  *out = member->*value;
  return status::Status::Ok();
}

// Read, then drop the member so that what is left is the op's fields.
template <typename T>
status::Status Take(Json* object, const std::string& key, Json::Type type,
                    T Json::*value, T* out) {
  const status::Status read = Read(*object, key, type, value, out);
  object->object.erase(key);
  return read;
}

// An integer-valued number, exact as a double (|v| < 2^53).
status::Status ReadInteger(const Json& object, const std::string& key,
                           int64_t* out) {
  double value = static_cast<double>(*out);
  const status::Status read =
      Read(object, key, Json::Type::kNumber, &Json::number_value, &value);
  if (!read.ok()) return read;
  if (!(std::fabs(value) < 9007199254740992.0) ||
      value != std::trunc(value)) {
    return BadField(key, "expected an integer");
  }
  *out = static_cast<int64_t>(value);
  return status::Status::Ok();
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
  PEEGA_RETURN_IF_ERROR(ReadInteger(out->raw, "id", &out->id), "request");
  out->op.clear();
  PEEGA_RETURN_IF_ERROR(Read(out->raw, "op", Json::Type::kString,
                             &Json::string_value, &out->op),
                        "request");
  if (out->op.empty()) {
    return status::InvalidInput("request has no \"op\"");
  }
  out->tenant = "default";
  PEEGA_RETURN_IF_ERROR(Read(out->raw, "tenant", Json::Type::kString,
                             &Json::string_value, &out->tenant),
                        "request");
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
  Json fields = request.raw;
  for (const char* key : {"id", "tenant", "op"}) {
    fields.object.erase(key);  // the envelope ParseRequest read
  }
  PEEGA_RETURN_IF_ERROR(Take(&fields, "graph", Json::Type::kString,
                             &Json::string_value, &out->graph),
                        "job");
  if (out->graph.empty()) {
    return BadField("graph", "required").WithContext("job");
  }
  const bool has_deadline = fields.Find("deadline_ms") != nullptr;
  PEEGA_RETURN_IF_ERROR(Take(&fields, "deadline_ms", Json::Type::kNumber,
                             &Json::number_value, &out->deadline_ms),
                        "job");
  if (has_deadline &&
      !(std::isfinite(out->deadline_ms) && out->deadline_ms > 0.0)) {
    return BadField("deadline_ms", "must be a finite number > 0")
        .WithContext("job");
  }
  if (!attack) return eval::ReadJson(fields, &out->eval).WithContext("job");
  PEEGA_RETURN_IF_ERROR(Take(&fields, "out", Json::Type::kString,
                             &Json::string_value, &out->out),
                        "job");
  PEEGA_RETURN_IF_ERROR(Take(&fields, "return_flips", Json::Type::kBool,
                             &Json::bool_value, &out->return_flips),
                        "job");
  return eval::ReadJson(fields, &out->attack).WithContext("job");
}

status::StatusOr<int64_t> CancelTarget(const Request& request) {
  if (request.raw.Find("target_id") == nullptr) {
    return BadField("target_id", "required").WithContext("request");
  }
  int64_t target = 0;
  PEEGA_RETURN_IF_ERROR(ReadInteger(request.raw, "target_id", &target),
                        "request");
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
