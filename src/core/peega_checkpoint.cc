#include "core/peega_checkpoint.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/record.h"

namespace repro::core {

namespace {

using obs::Json;
using status::InvalidInput;
using status::IoError;
using status::Status;

constexpr const char* kMagic = "peega-checkpoint";
constexpr int64_t kMaxInt = std::numeric_limits<int>::max();

}  // namespace

status::Status SavePeegaCheckpoint(const Json& echo,
                                   const PeegaCheckpoint& checkpoint,
                                   const std::string& path) {
  Json doc = echo;
  doc.object["magic"] = Json::MakeString(kMagic);
  doc.object["version"] = Json::MakeNumber(PeegaCheckpoint::kVersion);
  doc.object["iteration"] = Json::MakeNumber(checkpoint.iteration);
  doc.object["spent"] = Json::MakeNumber(checkpoint.spent);
  doc.object["rng_state"] = Json::MakeString(checkpoint.rng_state);
  Json flips = Json::MakeArray();
  for (const attack::Flip& flip : checkpoint.flips) {
    Json entry = Json::MakeObject();
    entry.object["f"] = Json::MakeNumber(flip.is_feature ? 1 : 0);
    entry.object["a"] = Json::MakeNumber(flip.a);
    entry.object["b"] = Json::MakeNumber(flip.b);
    flips.array.push_back(std::move(entry));
  }
  doc.object["flips"] = std::move(flips);
  std::string error;
  if (!obs::ReplaceFile(path, obs::Seal(std::move(doc)), &error)) {
    return IoError("checkpoint save: " + error);
  }
  return Status::Ok();
}

status::StatusOr<PeegaCheckpoint> LoadPeegaCheckpoint(
    const std::string& path, const Json& echo) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open checkpoint " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return IoError("read failure on checkpoint " + path);

  const std::string corrupt = "corrupt checkpoint " + path + ": ";
  Json doc;
  std::string error;
  switch (obs::Unseal(buffer.str(), &doc, &error)) {
    case obs::Unsealed::kOk:
      break;
    case obs::Unsealed::kMalformed:
      return InvalidInput(corrupt + error);
    case obs::Unsealed::kCrcMismatch:
      return IoError(corrupt + error);
  }
  std::string magic;
  if (!obs::ReadString(doc, "magic", &magic, &error) || magic != kMagic) {
    return InvalidInput(corrupt + "bad or missing magic");
  }
  int64_t version = 0;
  if (!obs::ReadInteger(doc, "version", 0, kMaxInt, &version, &error)) {
    return InvalidInput(corrupt + error);
  }
  if (version != PeegaCheckpoint::kVersion) {
    return InvalidInput("stale checkpoint " + path + ": version " +
                        std::to_string(version) + ", expected " +
                        std::to_string(PeegaCheckpoint::kVersion));
  }
  for (const auto& [key, value] : echo.object) {
    const Json* stored = doc.Find(key);
    if (stored == nullptr || stored->Dump() != value.Dump()) {
      return InvalidInput("stale checkpoint: " + key +
                          " differs from the current campaign");
    }
  }

  PeegaCheckpoint checkpoint;
  int64_t num_nodes = 0;
  int64_t feature_dim = 0;
  int64_t iteration = 0;
  if (!obs::ReadInteger(doc, "num_nodes", 0, kMaxInt, &num_nodes, &error) ||
      !obs::ReadInteger(doc, "feature_dim", 0, kMaxInt, &feature_dim,
                        &error) ||
      !obs::ReadInteger(doc, "iteration", 0, kMaxInt, &iteration, &error) ||
      !obs::ReadFinite(doc, "spent", &checkpoint.spent, &error) ||
      !obs::ReadString(doc, "rng_state", &checkpoint.rng_state, &error)) {
    return InvalidInput(corrupt + error);
  }
  checkpoint.iteration = static_cast<int>(iteration);
  const Json* flips = doc.Find("flips");
  if (flips == nullptr || flips->type != Json::Type::kArray) {
    return InvalidInput(corrupt + "field \"flips\": expected an array");
  }
  for (size_t i = 0; i < flips->array.size(); ++i) {
    const Json& entry = flips->array[i];
    int64_t is_feature = 0;
    int64_t a = 0;
    int64_t b = 0;
    if (!obs::ReadInteger(entry, "f", 0, 1, &is_feature, &error) ||
        !obs::ReadInteger(entry, "a", 0, num_nodes - 1, &a, &error) ||
        !obs::ReadInteger(entry, "b", 0,
                          (is_feature != 0 ? feature_dim : num_nodes) - 1,
                          &b, &error)) {
      return InvalidInput(corrupt + "flip " + std::to_string(i) + ": " +
                          error);
    }
    if (is_feature == 0 && a == b) {
      return InvalidInput(corrupt + "flip " + std::to_string(i) +
                          ": edge flip is a self-loop");
    }
    attack::Flip flip;
    flip.is_feature = is_feature != 0;
    flip.a = static_cast<int>(a);
    flip.b = static_cast<int>(b);
    checkpoint.flips.push_back(flip);
  }
  if (checkpoint.iteration != static_cast<int>(checkpoint.flips.size())) {
    return InvalidInput(
        corrupt + "iteration " + std::to_string(checkpoint.iteration) +
        " != flip count " + std::to_string(checkpoint.flips.size()));
  }
  return checkpoint;
}

}  // namespace repro::core
