#ifndef PEEGA_CORE_PEEGA_CHECKPOINT_H_
#define PEEGA_CORE_PEEGA_CHECKPOINT_H_

#include <string>
#include <vector>

#include "attack/attacker.h"
#include "obs/json.h"
#include "status/status.h"

namespace repro::core {

/// State of an in-flight PEEGA campaign, saved as one sealed record
/// (obs/record.h; DESIGN.md "Sealed records").
///
/// Next to the state the file carries the campaign's config echo: an
/// object holding every input that shapes the greedy trajectory (graph
/// dims, objective and attack options, targets, attacker access, batch
/// shape). Because the greedy loop is deterministic (PR-4 contract),
/// replaying the flips onto the same clean graph reconstructs the exact
/// engine state, so a resumed run continues with a bitwise-identical
/// flip sequence and objective. Load compares the echo member by member
/// as serialised JSON and rejects a checkpoint written for another
/// campaign with kInvalidInput "stale checkpoint: <key> differs from the
/// current campaign" instead of silently diverging.
///
/// A CRC mismatch (bit rot that keeps the JSON parsable) is kIoError
/// with the stored and computed CRCs named; anything structurally wrong
/// is kInvalidInput "corrupt checkpoint", with the parser's byte offset
/// or the offending field named.
///
/// Version 3 added target_nodes, attacker_nodes, batch_size and
/// gumbel_scale to the echo, so every PEEGA variant (PeegaAttack and
/// PeegaBatchAttack) resumes only into the campaign that wrote it.
struct PeegaCheckpoint {
  static constexpr int kVersion = 3;

  int iteration = 0;    // committed flips == flips.size()
  double spent = 0.0;   // budget consumed
  std::string rng_state;  // mt19937_64 stream state (operator<< format)
  std::vector<attack::Flip> flips;
};

/// Writes `echo` (an object whose "num_nodes" and "feature_dim" bound
/// the flips) and `checkpoint` as one sealed record, durably replacing
/// `path`: after a crash or power cut the file holds the previous or
/// the new checkpoint, never a torn or empty one.
status::Status SavePeegaCheckpoint(const obs::Json& echo,
                                   const PeegaCheckpoint& checkpoint,
                                   const std::string& path);

/// Reads the checkpoint at `path` for the campaign whose config echo is
/// `echo`. kIoError when unreadable or on a CRC mismatch; kInvalidInput
/// when malformed, of another version, stale, or internally
/// inconsistent, with the offending key named.
status::StatusOr<PeegaCheckpoint> LoadPeegaCheckpoint(
    const std::string& path, const obs::Json& echo);

}  // namespace repro::core

#endif  // PEEGA_CORE_PEEGA_CHECKPOINT_H_
