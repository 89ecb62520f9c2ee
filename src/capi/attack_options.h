#ifndef PEEGA_CAPI_ATTACK_OPTIONS_H_
#define PEEGA_CAPI_ATTACK_OPTIONS_H_

// C++ side of gg_attack_options, shared by the C ABI and the in-repo
// callers of it. gg_attack_options mirrors eval::AttackerSpec member
// for member; these two copies are the one place the layouts meet.

#include "capi/graphguard.h"
#include "eval/registry.h"

namespace repro::capi {

/// Fills `out` from `spec` (gg_attack_options_init is this over the
/// eval::AttackerSpec defaults). String members point into `spec`,
/// which must outlive every use of `out`; empty strings become NULL.
void ToAttackOptions(const eval::AttackerSpec& spec, gg_attack_options* out);

/// The spec `options` stands for; NULL strings read as "".
eval::AttackerSpec FromAttackOptions(const gg_attack_options& options);

}  // namespace repro::capi

#endif  // PEEGA_CAPI_ATTACK_OPTIONS_H_
