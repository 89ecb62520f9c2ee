#include "core/peega_checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/crc32.h"
#include "obs/json.h"

namespace repro::core {

namespace {

using obs::Json;
using status::InvalidInput;
using status::IoError;
using status::Status;
using status::StatusOr;

constexpr const char* kMagic = "peega-checkpoint";

Status ReadNumber(const Json& doc, const char* key, double* out) {
  const Json* field = doc.Find(key);
  if (field == nullptr || field->type != Json::Type::kNumber) {
    return InvalidInput(std::string("missing or non-numeric field '") +
                        key + "'");
  }
  *out = field->number_value;
  return Status::Ok();
}

Status ReadInt(const Json& doc, const char* key, int* out) {
  double value = 0.0;
  PEEGA_RETURN_IF_ERROR(ReadNumber(doc, key, &value), "checkpoint field");
  *out = static_cast<int>(value);
  return Status::Ok();
}

Json IntArray(const std::vector<int>& values) {
  Json array = Json::MakeArray();
  for (const int v : values) array.array.push_back(Json::MakeNumber(v));
  return array;
}

Status ReadIntArray(const Json& doc, const char* key, std::vector<int>* out) {
  const Json* field = doc.Find(key);
  if (field == nullptr || field->type != Json::Type::kArray) {
    return InvalidInput(std::string("missing or non-array field '") + key +
                        "'");
  }
  for (const Json& entry : field->array) {
    // The range test also rejects NaN, so the cast below is defined.
    if (entry.type != Json::Type::kNumber ||
        !(std::fabs(entry.number_value) <=
          std::numeric_limits<int>::max())) {
      return InvalidInput(std::string("non-int entry in '") + key + "'");
    }
    out->push_back(static_cast<int>(entry.number_value));
  }
  return Status::Ok();
}

}  // namespace

status::Status SavePeegaCheckpoint(const PeegaCheckpoint& checkpoint,
                                   const std::string& path) {
  Json doc = Json::MakeObject();
  doc.object["magic"] = Json::MakeString(kMagic);
  doc.object["version"] = Json::MakeNumber(PeegaCheckpoint::kVersion);
  doc.object["num_nodes"] = Json::MakeNumber(checkpoint.num_nodes);
  doc.object["feature_dim"] = Json::MakeNumber(checkpoint.feature_dim);
  doc.object["layers"] = Json::MakeNumber(checkpoint.layers);
  doc.object["norm_p"] = Json::MakeNumber(checkpoint.norm_p);
  doc.object["lambda"] = Json::MakeNumber(checkpoint.lambda);
  doc.object["mode"] = Json::MakeNumber(checkpoint.mode);
  doc.object["engine"] = Json::MakeNumber(checkpoint.engine);
  doc.object["perturbation_rate"] =
      Json::MakeNumber(checkpoint.perturbation_rate);
  doc.object["feature_cost"] = Json::MakeNumber(checkpoint.feature_cost);
  doc.object["target_nodes"] = IntArray(checkpoint.target_nodes);
  doc.object["attacker_nodes"] = IntArray(checkpoint.attacker_nodes);
  doc.object["batch_size"] = Json::MakeNumber(checkpoint.batch_size);
  doc.object["gumbel_scale"] = Json::MakeNumber(checkpoint.gumbel_scale);
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
  // CRC over the crc-less serialization; obs::Json keys are map-ordered
  // so the byte layout is stable and the check is reproducible.
  doc.object["crc"] =
      Json::MakeNumber(static_cast<double>(obs::Crc32(doc.Dump())));

  // tmp + rename: the checkpoint at `path` is always either the previous
  // complete one or the new complete one, never a torn write.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return IoError("cannot create " + tmp);
    doc.Write(out);
    out << "\n";
    out.flush();
    if (!out) return IoError("write failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

status::StatusOr<PeegaCheckpoint> LoadPeegaCheckpoint(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open checkpoint " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return IoError("read failure on checkpoint " + path);

  Json doc;
  std::string error;
  if (!Json::Parse(buffer.str(), &doc, &error)) {
    // `error` carries the parser's byte offset ("... at offset N") so
    // the log names where in the file the corruption sits.
    return InvalidInput("corrupt checkpoint " + path + ": " + error);
  }
  const Json* magic = doc.Find("magic");
  if (magic == nullptr || magic->type != Json::Type::kString ||
      magic->string_value != kMagic) {
    return InvalidInput("corrupt checkpoint " + path +
                        ": bad or missing magic");
  }
  int version = 0;
  Status status = ReadInt(doc, "version", &version);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  if (version != PeegaCheckpoint::kVersion) {
    return InvalidInput("stale checkpoint " + path + ": version " +
                        std::to_string(version) + ", expected " +
                        std::to_string(PeegaCheckpoint::kVersion));
  }
  const Json* crc_field = doc.Find("crc");
  if (crc_field == nullptr || crc_field->type != Json::Type::kNumber) {
    return InvalidInput("corrupt checkpoint " + path + ": missing crc");
  }
  {
    const uint32_t stored =
        static_cast<uint32_t>(crc_field->number_value);
    Json without_crc = doc;
    without_crc.object.erase("crc");
    const uint32_t computed = obs::Crc32(without_crc.Dump());
    if (stored != computed) {
      return IoError("corrupt checkpoint " + path +
                     ": crc mismatch (stored " + std::to_string(stored) +
                     ", computed " + std::to_string(computed) + " over " +
                     std::to_string(buffer.str().size()) + " bytes)");
    }
  }

  PeegaCheckpoint checkpoint;
  double lambda = 0.0;
  double gumbel_scale = 0.0;
  for (const auto& [key, out] :
       std::initializer_list<std::pair<const char*, int*>>{
           {"num_nodes", &checkpoint.num_nodes},
           {"feature_dim", &checkpoint.feature_dim},
           {"layers", &checkpoint.layers},
           {"norm_p", &checkpoint.norm_p},
           {"mode", &checkpoint.mode},
           {"engine", &checkpoint.engine},
           {"batch_size", &checkpoint.batch_size},
           {"iteration", &checkpoint.iteration}}) {
    status = ReadInt(doc, key, out);
    if (!status.ok()) return status.WithContext("checkpoint " + path);
  }
  status = ReadNumber(doc, "lambda", &lambda);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  checkpoint.lambda = static_cast<float>(lambda);
  status = ReadNumber(doc, "perturbation_rate",
                      &checkpoint.perturbation_rate);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  status = ReadNumber(doc, "feature_cost", &checkpoint.feature_cost);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  status = ReadNumber(doc, "spent", &checkpoint.spent);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  status = ReadNumber(doc, "gumbel_scale", &gumbel_scale);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  checkpoint.gumbel_scale = static_cast<float>(gumbel_scale);
  status = ReadIntArray(doc, "target_nodes", &checkpoint.target_nodes);
  if (!status.ok()) return status.WithContext("checkpoint " + path);
  status = ReadIntArray(doc, "attacker_nodes", &checkpoint.attacker_nodes);
  if (!status.ok()) return status.WithContext("checkpoint " + path);

  const Json* rng = doc.Find("rng_state");
  if (rng == nullptr || rng->type != Json::Type::kString) {
    return InvalidInput("corrupt checkpoint " + path +
                        ": missing rng_state");
  }
  checkpoint.rng_state = rng->string_value;

  const Json* flips = doc.Find("flips");
  if (flips == nullptr || flips->type != Json::Type::kArray) {
    return InvalidInput("corrupt checkpoint " + path + ": missing flips");
  }
  for (const Json& entry : flips->array) {
    int is_feature = 0;
    attack::Flip flip;
    status = ReadInt(entry, "f", &is_feature);
    if (!status.ok()) return status.WithContext("checkpoint flip entry");
    status = ReadInt(entry, "a", &flip.a);
    if (!status.ok()) return status.WithContext("checkpoint flip entry");
    status = ReadInt(entry, "b", &flip.b);
    if (!status.ok()) return status.WithContext("checkpoint flip entry");
    flip.is_feature = is_feature != 0;
    if (flip.a < 0 || flip.a >= checkpoint.num_nodes || flip.b < 0 ||
        (!flip.is_feature && flip.b >= checkpoint.num_nodes) ||
        (flip.is_feature && flip.b >= checkpoint.feature_dim)) {
      return InvalidInput("corrupt checkpoint " + path +
                          ": flip index out of range");
    }
    checkpoint.flips.push_back(flip);
  }
  if (checkpoint.iteration != static_cast<int>(checkpoint.flips.size())) {
    return InvalidInput(
        "corrupt checkpoint " + path + ": iteration " +
        std::to_string(checkpoint.iteration) + " != flip count " +
        std::to_string(checkpoint.flips.size()));
  }
  return checkpoint;
}

}  // namespace repro::core
