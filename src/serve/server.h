#ifndef PEEGA_SERVE_SERVER_H_
#define PEEGA_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "status/status.h"

namespace repro::serve {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX listening socket. A stale socket
  /// file from a crashed previous run is unlinked on Start().
  std::string socket_path;
  /// Admission control: maximum number of queued (not yet running)
  /// jobs. A submission past this bound is rejected immediately with
  /// RESOURCE_EXHAUSTED instead of growing an unbounded backlog.
  int max_queue = 64;
  /// Durability directory (`--journal <dir>`). Empty = no journal: jobs
  /// live only in memory, as before PR 10. Non-empty: every job state
  /// transition is fsync'd to <dir>/journal.jsonl BEFORE it takes
  /// effect, Start() replays the journal and re-enqueues non-terminal
  /// jobs, and attack jobs get a server-assigned checkpoint path under
  /// <dir> unless the client chose one.
  std::string journal_dir;
  /// Retry policy for jobs that fail with a transient code
  /// (status::IsTransient): total attempt budget (first run included)
  /// and deterministic exponential backoff base/cap. Retries re-enter
  /// the queue directly — no admission double-counting, no max_queue
  /// check. Start() refuses a negative backoff.
  int max_attempts = 3;
  double retry_backoff_ms = 100.0;
  double retry_backoff_max_ms = 5000.0;
};

/// What Start() recovered from the journal; also surfaced through the
/// "stats" op so operators can read it post-hoc.
struct RecoveryInfo {
  int requeued_jobs = 0;      // non-terminal jobs re-enqueued
  int replayed_records = 0;   // records decoded + CRC-verified
  int corrupt_records = 0;    // records skipped (CRC/shape)
  int64_t truncated_bytes = 0;  // torn tail dropped
  double recovery_ms = 0.0;   // replay + re-enqueue wall time
  std::vector<std::string> warnings;  // "path:line: reason" per skip
};

/// Long-running multi-tenant job server (`graphguard serve`).
///
/// Two owned threads (`parallel::WorkerThread`, keeping the one-layer-
/// owns-threads rule intact):
///   - the IO thread runs a poll(2) loop over the listening socket and
///     every client connection, parsing newline-delimited JSON requests
///     and answering control ops (ping/stats/pause/resume/cancel/
///     shutdown) inline;
///   - the scheduler thread executes attack/eval jobs strictly FIFO,
///     one at a time, so every job sees the full deterministic thread
///     pool (`src/parallel`) and identical requests produce identical
///     results regardless of client concurrency.
///
/// Every job carries a `status::Deadline` armed at ADMISSION, so time
/// spent queued counts against the budget; an expired or cancelled job
/// is answered with its code instead of running. Shutdown drains: no
/// new jobs are admitted (UNAVAILABLE), queued jobs finish and their
/// responses are flushed, then the server exits.
///
/// Per-tenant obs instruments (serve.tenant.<name>.*): accepted /
/// rejected / completed / failed / cancelled counters plus queue-wait
/// and run-time histograms, all exposed through the "stats" op.
///
/// With `journal_dir` set the server is additionally crash-safe: an
/// ACCEPTED job is fsync'd to the write-ahead journal before it is
/// queued (an append failure rejects the job with IO_ERROR — the
/// durability promise is refused, not silently dropped), every state
/// transition is journaled, and a restart replays the journal and
/// re-runs every non-terminal job with its remaining deadline budget
/// and its checkpoint file, so a recovered PEEGA campaign resumes from
/// the last committed flip. Transient failures (status::IsTransient)
/// are retried with deterministic exponential backoff up to
/// `max_attempts`; responses to recovered jobs are dropped (the client
/// connection did not survive the crash) but their results — output
/// files, checkpoints, journal terminal records — are identical.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the IO + scheduler threads. Returns
  /// kInvalidInput on a bad path or option (max_queue < 1,
  /// max_attempts < 1, retry_backoff_ms < 0) and kIoError on a socket
  /// failure (the server is then inert and Wait() returns immediately).
  status::Status Start();

  /// Blocks until the server has fully drained and both threads exited
  /// (i.e. after a "shutdown" request or a Shutdown() call).
  void Wait();

  /// Programmatic graceful drain, equivalent to a "shutdown" request.
  void Shutdown();

  /// Journal recovery summary; meaningful after a successful Start()
  /// with `journal_dir` set (all-zero otherwise).
  const RecoveryInfo& recovery() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace repro::serve

#endif  // PEEGA_SERVE_SERVER_H_
