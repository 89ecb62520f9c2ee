#include "eval/registry.h"

#include "attack/dice.h"
#include "attack/gf_attack.h"
#include "attack/metattack.h"
#include "attack/pgd.h"
#include "attack/random_attack.h"
#include "core/gnat.h"
#include "core/peega.h"
#include "core/peega_batch.h"
#include "defense/gnnguard.h"
#include "defense/jaccard.h"
#include "defense/model_defenders.h"
#include "defense/prognn.h"
#include "defense/svd.h"

namespace repro::eval {

namespace {

std::unique_ptr<attack::Attacker> MakePeega(const AttackerSpec& spec) {
  core::PeegaAttack::Options options;
  options.lambda = static_cast<float>(spec.lambda);
  options.norm_p = spec.norm_p;
  options.layers = spec.layers;
  options.checkpoint_path = spec.checkpoint_path;
  options.checkpoint_every = spec.checkpoint_every;
  if (spec.mode == "tm") {
    options.mode = core::PeegaAttack::Mode::kTopologyOnly;
  }
  if (spec.mode == "fp") {
    options.mode = core::PeegaAttack::Mode::kFeaturesOnly;
  }
  if (spec.name == "peega-batch") {
    core::PeegaBatchAttack::Options batch;
    batch.peega = options;
    batch.batch_size = spec.batch_size;
    return std::make_unique<core::PeegaBatchAttack>(batch);
  }
  return std::make_unique<core::PeegaAttack>(options);
}

template <typename T>
std::unique_ptr<attack::Attacker> MakeAttacker(const AttackerSpec&) {
  return std::make_unique<T>();
}

template <typename T>
std::unique_ptr<defense::Defender> MakeDefender() {
  return std::make_unique<T>();
}

struct AttackerEntry {
  const char* name;
  std::unique_ptr<attack::Attacker> (*make)(const AttackerSpec&);
};

constexpr AttackerEntry kAttackers[] = {
    {"peega", &MakePeega},
    {"peega-batch", &MakePeega},
    {"metattack", &MakeAttacker<attack::Metattack>},
    {"pgd", &MakeAttacker<attack::PgdAttack>},
    {"minmax", &MakeAttacker<attack::MinMaxAttack>},
    {"gf", &MakeAttacker<attack::GfAttack>},
    {"dice", &MakeAttacker<attack::DiceAttack>},
    {"random", &MakeAttacker<attack::RandomAttack>},
};

struct DefenderEntry {
  const char* name;
  std::unique_ptr<defense::Defender> (*make)();
};

constexpr DefenderEntry kDefenders[] = {
    {"gnat", &MakeDefender<core::GnatDefender>},
    {"gcn", &MakeDefender<defense::GcnDefender>},
    {"gat", &MakeDefender<defense::GatDefender>},
    {"jaccard", &MakeDefender<defense::JaccardDefender>},
    {"svd", &MakeDefender<defense::SvdDefender>},
    {"rgcn", &MakeDefender<defense::RGcnDefender>},
    {"prognn", &MakeDefender<defense::ProGnnDefender>},
    {"simpgcn", &MakeDefender<defense::SimPGcnDefender>},
    {"gnnguard", &MakeDefender<defense::GnnGuardDefender>},
};

}  // namespace

std::unique_ptr<attack::Attacker> MakeAttackerByName(
    const AttackerSpec& spec) {
  for (const AttackerEntry& entry : kAttackers) {
    if (spec.name == entry.name) return entry.make(spec);
  }
  return nullptr;
}

std::unique_ptr<defense::Defender> MakeDefenderByName(
    const std::string& name) {
  for (const DefenderEntry& entry : kDefenders) {
    if (name == entry.name) return entry.make();
  }
  return nullptr;
}

std::vector<std::string> AttackerNames() {
  std::vector<std::string> names;
  for (const AttackerEntry& entry : kAttackers) names.push_back(entry.name);
  return names;
}

std::vector<std::string> DefenderNames() {
  std::vector<std::string> names;
  for (const DefenderEntry& entry : kDefenders) names.push_back(entry.name);
  return names;
}

}  // namespace repro::eval
