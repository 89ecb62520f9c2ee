#ifndef PEEGA_SERVE_JOURNAL_H_
#define PEEGA_SERVE_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "status/status.h"

namespace repro::serve {

/// Write-ahead job journal for `graphguard serve` (`--journal <dir>`).
///
/// One sealed record (obs/record.h) per line per job state transition,
/// fsync'd before the transition takes effect, so a SIGKILL at any
/// instant loses at most work the PR-5 checkpoints already cover:
///
///   ACCEPTED ──► RUNNING(n) ──► DONE
///                    │  ▲
///                    │  └── backoff ── RETRYING(n, transient code)
///                    ├───► FAILED(code)   permanent / attempts spent
///                    └───► CANCELLED
///
/// On startup the server replays the journal, re-enqueues every job
/// whose latest record is non-terminal (re-arming the remaining
/// `Deadline` budget recorded with each transition and pointing attack
/// ops back at their checkpoint files), and then rewrites the journal
/// compacted — terminal jobs drop out, so replay stays O(live jobs).
/// Torn tails, CRC-corrupt records and records whose fields do not
/// read are truncated/skipped loudly (counted + reported through the
/// `stats` op), never aborted on and never read with a default.

/// Bump when the record shape changes incompatibly. Records from a
/// newer version are rejected (IO_ERROR) instead of misread.
inline constexpr int kJournalVersion = 1;
inline constexpr const char* kJournalFileName = "journal.jsonl";

enum class JobState {
  kAccepted,
  kRunning,
  kRetrying,
  kDone,
  kFailed,
  kCancelled,
};

/// Stable wire name ("ACCEPTED", "RUNNING", ...).
const char* JobStateName(JobState state);
bool ParseJobState(const std::string& name, JobState* out);

/// DONE / FAILED / CANCELLED — nothing left to replay.
bool IsTerminal(JobState state);

struct JournalRecord {
  int64_t seq = 0;   // assigned by Journal::AppendRecord, monotone per journal
  int64_t uid = 0;   // server-assigned job uid, unique across restarts
  JobState state = JobState::kAccepted;
  int64_t client_id = 0;  // client-chosen request id (response envelope)
  std::string tenant;
  /// For ACCEPTED: attempts already spent (0 on first admission, >0 only
  /// in compacted journals). For RUNNING: the 1-based attempt now
  /// starting. For RETRYING/FAILED: the attempt that just failed.
  int attempt = 0;
  std::string code;  // status::CodeName for RETRYING / FAILED
  /// Deadline budget left when the record was written; < 0 = unbounded.
  double remaining_ms = -1.0;
  /// Full request object (op-specific fields included); ACCEPTED only.
  obs::Json request;
};

/// The record sealed (obs::Seal): one newline-terminated JSON line.
std::string EncodeJournalRecord(const JournalRecord& record);

/// Unseals one line and reads its fields strictly: "v", "seq", "uid",
/// "state", "id", "tenant", "attempt" and "remaining_ms" are required
/// ("request" too for ACCEPTED), "code" is optional. `where`
/// ("path:line") prefixes every error message; malformed, CRC-corrupt
/// or version-incompatible records and unreadable fields are IO_ERROR.
status::Status DecodeJournalRecord(const std::string& line,
                                   const std::string& where,
                                   JournalRecord* out);

/// A job whose latest journal record is non-terminal: what the server
/// needs to re-enqueue it after a crash.
struct RecoveredJob {
  int64_t uid = 0;
  int64_t client_id = 0;
  std::string tenant;
  obs::Json request;
  /// The attempt number the re-run should use (1-based). A job killed
  /// mid-RUNNING re-runs the same attempt (its checkpoint carries the
  /// progress); a job killed between RETRYING and the next RUNNING
  /// starts the next attempt.
  int next_attempt = 1;
  double remaining_ms = -1.0;  // deadline budget left; < 0 = unbounded
};

struct ReplayResult {
  std::vector<RecoveredJob> jobs;  // non-terminal, in admission order
  int64_t max_seq = 0;
  int64_t max_uid = 0;
  int replayed_records = 0;  // decoded + CRC-verified
  int corrupt_records = 0;   // skipped: CRC mismatch / bad shape
  int64_t truncated_bytes = 0;  // torn tail dropped at EOF
  int done = 0;
  int failed = 0;
  int cancelled = 0;
  /// "path:line: reason" per skipped record / torn tail — the loud part
  /// of "truncate loudly"; surfaced through the stats op and the CLI.
  std::vector<std::string> warnings;
};

/// Replays `dir`/journal.jsonl without touching it. A missing file is
/// an empty result; an unreadable file is IO_ERROR. Corrupt records are
/// skipped (counted + warned), a torn tail is dropped.
status::StatusOr<ReplayResult> ReplayJournal(const std::string& dir);

/// Deterministic retry policy for transient job failures
/// (status::IsTransient). No RNG, no jitter: identical failure
/// sequences schedule identical backoffs, which is what lets
/// journal_test pin the exact delays.
struct RetryPolicy {
  int max_attempts = 3;          // total attempts, first run included
  double backoff_base_ms = 100.0;
  double backoff_max_ms = 5000.0;
};

/// Delay before `next_attempt` (2-based): base, 2·base, 4·base, ...,
/// capped at backoff_max_ms.
double RetryBackoffMs(const RetryPolicy& policy, int next_attempt);

/// Append-only fsync'd journal writer with atomic compaction.
/// Thread-safe: the server appends from both its IO thread (admission)
/// and its scheduler thread (state transitions).
class Journal {
 public:
  /// Creates `dir` if needed, replays an existing journal into
  /// `*replay`, rewrites it compacted (live jobs only, one
  /// obs::ReplaceFile), and opens it for appending. seq/uid counters
  /// resume past the replayed maxima.
  static status::StatusOr<std::unique_ptr<Journal>> Open(
      const std::string& dir, ReplayResult* replay);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Assigns the next seq, writes the record, fsyncs. IO_ERROR on write
  /// failure or when the serve.journal.append failpoint fires. Once the
  /// file accumulates enough terminal records it is compacted in place
  /// (atomically) before the append.
  status::Status AppendRecord(JournalRecord record);

  /// Next server-assigned job uid (monotone across restarts).
  int64_t NextUid();

  const std::string& dir() const { return dir_; }

  /// `dir`/ckpt-<uid>.json — where the server points a recovered (or
  /// journaled) attack job's checkpoint unless the client chose a path.
  static std::string CheckpointPath(const std::string& dir, int64_t uid);

 private:
  Journal(std::string dir, std::string path);

  status::Status AppendLocked(JournalRecord& record);
  status::Status CompactLocked();

  std::mutex mu_;
  std::string dir_;
  std::string path_;
  int fd_ = -1;
  int64_t last_seq_ = 0;
  int64_t last_uid_ = 0;
  int64_t records_in_file_ = 0;
  // Folded state per live job (an ACCEPTED-shaped record whose attempt
  // counts the attempts already spent), kept so compaction can rewrite
  // the file from memory. Terminal jobs are erased — compaction is just
  // "dump this map".
  std::map<int64_t, JournalRecord> live_;
};

}  // namespace repro::serve

#endif  // PEEGA_SERVE_JOURNAL_H_
