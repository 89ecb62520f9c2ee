#include "capi/attack_options.h"

#include <string>

namespace repro::capi {

namespace {

// Calls `copy` with each ABI member and the spec member it stands for.
template <typename Options, typename Spec, typename F>
void ForEachMember(Options* abi, Spec* spec, F copy) {
  copy(abi->attacker, spec->name);
  copy(abi->rate, spec->rate);
  copy(abi->feature_cost, spec->feature_cost);
  copy(abi->lambda, spec->lambda);
  copy(abi->norm_p, spec->norm_p);
  copy(abi->layers, spec->layers);
  copy(abi->batch_size, spec->batch_size);
  copy(abi->mode, spec->mode);
  copy(abi->checkpoint_path, spec->checkpoint_path);
  copy(abi->checkpoint_every, spec->checkpoint_every);
  copy(abi->seed, spec->seed);
}

void Copy(const char* in, std::string* out) { *out = in == nullptr ? "" : in; }
void Copy(const std::string& in, const char** out) {
  *out = in.empty() ? nullptr : in.c_str();
}
template <typename A, typename B>
void Copy(const A& in, B* out) {
  *out = static_cast<B>(in);
}

}  // namespace

void ToAttackOptions(const eval::AttackerSpec& spec, gg_attack_options* out) {
  ForEachMember(out, &spec,
                [](auto& abi, const auto& member) { Copy(member, &abi); });
}

eval::AttackerSpec FromAttackOptions(const gg_attack_options& options) {
  eval::AttackerSpec spec;
  ForEachMember(&options, &spec,
                [](const auto& abi, auto& member) { Copy(abi, &member); });
  return spec;
}

}  // namespace repro::capi
