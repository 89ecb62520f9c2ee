#ifndef PEEGA_CORE_PEEGA_CHECKPOINT_H_
#define PEEGA_CORE_PEEGA_CHECKPOINT_H_

#include <string>
#include <vector>

#include "attack/attacker.h"
#include "core/peega.h"
#include "status/status.h"

namespace repro::core {

/// Serialized state of an in-flight PEEGA campaign (versioned JSON via
/// obs::Json, format documented in DESIGN.md "Failure model & graceful
/// degradation").
///
/// The checkpoint records the committed flip sequence, the RNG stream
/// state, and an echo of every input that shapes the greedy trajectory
/// (graph dims, attack options). Because the greedy loop is
/// deterministic (PR-4 contract), replaying the flips onto the same
/// clean graph reconstructs the exact engine state, so a resumed run
/// continues with a bitwise-identical flip sequence and objective.
/// The config echo lets `LoadPeegaCheckpoint` reject stale checkpoints
/// (written for a different graph or option set) with a readable
/// kInvalidInput status instead of silently diverging.
///
/// Since version 2 the file carries a "crc" field — a CRC32
/// (obs::Crc32) over the document serialized without it — so bit rot
/// that happens to keep the JSON parsable is still caught: a mismatch
/// is rejected with kIoError (stored vs computed CRC named) instead of
/// silently resuming from corrupt state. Structural corruption keeps
/// the kInvalidInput "corrupt checkpoint" contract, with the parser's
/// byte offset surfaced in the message.
///
/// Version 3 added target_nodes, attacker_nodes, batch_size and
/// gumbel_scale to the echo, so every PEEGA variant (PeegaAttack and
/// PeegaBatchAttack) resumes only into the campaign that wrote it.
struct PeegaCheckpoint {
  static constexpr int kVersion = 3;

  // Config echo, validated on resume.
  int num_nodes = 0;
  int feature_dim = 0;
  int layers = 0;
  int norm_p = 0;
  float lambda = 0.0f;
  int mode = 0;    // PeegaAttack::Mode as int
  int engine = 0;  // PeegaAttack::Engine as int
  double perturbation_rate = 0.0;
  double feature_cost = 1.0;
  std::vector<int> target_nodes;    // PeegaAttack::Options::target_nodes
  std::vector<int> attacker_nodes;  // AttackOptions::attacker_nodes
  int batch_size = 1;               // 1 for PEEGA
  float gumbel_scale = 0.0f;        // 0 for PEEGA

  // Campaign state.
  int iteration = 0;    // committed flips == flips.size()
  double spent = 0.0;   // budget consumed
  std::string rng_state;  // mt19937_64 stream state (operator<< format)
  std::vector<attack::Flip> flips;
};

/// Writes atomically (tmp file + rename) so a crash mid-save never
/// leaves a truncated checkpoint behind.
status::Status SavePeegaCheckpoint(const PeegaCheckpoint& checkpoint,
                                   const std::string& path);

/// Parses and structurally validates a checkpoint file. kIoError when
/// unreadable, kInvalidInput (with the offending field named) when
/// malformed, version-mismatched, or internally inconsistent.
status::StatusOr<PeegaCheckpoint> LoadPeegaCheckpoint(
    const std::string& path);

}  // namespace repro::core

#endif  // PEEGA_CORE_PEEGA_CHECKPOINT_H_
