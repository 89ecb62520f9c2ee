#include "serve/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attack/attacker.h"
#include "debug/failpoints.h"
#include "eval/op_schema.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "parallel/worker_thread.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "status/deadline.h"
#include "status/status.h"

namespace repro::serve {

namespace {

using status::Status;

constexpr size_t kMaxGraphCacheEntries = 16;
constexpr size_t kMaxRequestLineBytes = 1 << 20;
constexpr int kListenBacklog = 128;  // listen(2) backlog

obs::Json Num(double v) { return obs::Json::MakeNumber(v); }
obs::Json Str(std::string s) { return obs::Json::MakeString(std::move(s)); }

// {"<key>": value}: the result of the inline ops that report one flag.
obs::Json Flag(const char* key, bool value) {
  obs::Json result = obs::Json::MakeObject();
  result.object[key] = obs::Json::MakeBool(value);
  return result;
}

// One key of a stats counter group and the counter it reads: the group's
// prefix followed by `counter`, or by the key itself when that is null.
struct CounterField {
  const char* key;
  const char* counter = nullptr;
};

obs::Json CounterGroup(const std::string& prefix,
                       std::initializer_list<CounterField> fields) {
  obs::Json group = obs::Json::MakeObject();
  for (const CounterField& field : fields) {
    const char* name = field.counter != nullptr ? field.counter : field.key;
    group.object[field.key] =
        Num(static_cast<double>(obs::GetCounter(prefix + name)->value()));
  }
  return group;
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

obs::Histogram* LatencyHistogram(const std::string& name) {
  return obs::GetHistogram(name, obs::LatencyBucketsMs());
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

  ServerOptions options;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;

  std::unique_ptr<parallel::WorkerThread> io_thread;
  std::unique_ptr<parallel::WorkerThread> scheduler_thread;

  struct Job {
    Job() = default;
    // Admission and journal recovery both build a job here, and only
    // here is its deadline armed: `budget_ms` from now, in the journal's
    // convention (< 0 = no limit). Admission passes the request's
    // deadline_ms, so queue wait spends the budget too; recovery passes
    // what was left when the job's last record was written.
    Job(Request request, JobRequest job_spec, double budget_ms, int conn)
        : id(request.id),
          tenant(std::move(request.tenant)),
          op(std::move(request.op)),
          raw(std::move(request.raw)),
          spec(std::move(job_spec)),
          conn_id(conn),
          deadline(budget_ms >= 0.0
                       ? status::Deadline::AfterSeconds(budget_ms / 1e3)
                       : status::Deadline::Cancellable()) {}

    int64_t id = 0;
    int64_t uid = 0;  // journal identity; 0 when the journal is off
    std::string tenant;
    std::string op;
    obs::Json raw;      // as journaled
    JobRequest spec;    // raw, read and validated by ParseJob
    int conn_id = -1;  // -1: recovered job, no client to respond to
    status::Deadline deadline;
    obs::StopWatch waited;      // queue-wait clock
    bool cancelled = false;
    int attempt = 1;            // 1-based attempt this run would be
    double not_before_ms = 0.0;  // uptime instant a retry becomes due
  };

  // What one attempt at a job came to.
  struct Outcome {
    Status status;
    obs::Json result;       // null unless the job produced one
    bool executed = false;  // false: cancelled or expired while queued
    bool internal = false;  // the job threw: INTERNAL, never retried
  };

  // The job the scheduler is running: what a cancel request must reach.
  struct RunningJob {
    int64_t id = -1;
    std::string tenant;
    status::Deadline deadline;
  };

  struct Connection {
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    /// Torn down at the end of the current IO-loop pass. Deferred
    /// rather than erased inline: Respond() runs inside HandleLine(),
    /// which the loop calls while holding a reference into `conns` —
    /// erasing there would leave that reference dangling.
    bool doomed = false;
  };

  // ---- shared state (guarded by mu) --------------------------------
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> queue;
  bool paused = false;
  bool draining = false;
  bool stopping = false;
  RunningJob running;
  // Completed-job responses en route from the scheduler to the IO loop.
  std::vector<std::pair<int, std::string>> outbox;
  std::set<std::string> tenants;  // every tenant seen, for "stats"

  // ---- durability (written in Start, then scheduler/IO threads) ----
  std::unique_ptr<Journal> journal;  // null when journal_dir is empty
  RecoveryInfo recovery_info;        // filled once, in Start()
  obs::StopWatch uptime;             // clock for retry due instants

  // ---- IO-thread-only state ----------------------------------------
  std::map<int, Connection> conns;
  int next_conn_id = 1;

  // ---- scheduler-thread-only state ---------------------------------
  std::map<std::string, graph::Graph> graph_cache;

  void WakeIo() {
    if (wake_write >= 0) {
      const char byte = 1;
      (void)!::write(wake_write, &byte, 1);
    }
  }

  // Under `mu`: the prefix of the tenant's obs instruments (accepted /
  // rejected / completed / failed / cancelled counters, queue_ms and
  // run_ms histograms), which "stats" reports from then on. The names
  // are bounded because ParseRequest validates tenant names.
  std::string TenantPrefix(const std::string& tenant) {
    tenants.insert(tenant);
    return "serve.tenant." + tenant + ".";
  }

  // ---- request handling (IO thread) --------------------------------

  void Respond(int conn_id, const obs::Json& response) {
    if (conn_id < 0) return;  // recovered job: no surviving client
    const auto it = conns.find(conn_id);
    if (it == conns.end() || it->second.doomed) return;
    if (PEEGA_FAILPOINT("serve.respond")) {
      // Simulates a response write failure: the connection is torn
      // down (at the end of this IO pass), so the client observes
      // UNAVAILABLE instead of a hang.
      it->second.doomed = true;
      it->second.outbuf.clear();
      return;
    }
    it->second.outbuf += EncodeLine(response);
  }

  void HandleLine(int conn_id, const std::string& line) {
    Request request;
    const Status parsed =
        PEEGA_FAILPOINT("serve.parse")
            ? status::InvalidInput("injected failpoint serve.parse")
            : ParseRequest(line, &request);
    if (!parsed.ok()) {
      Respond(conn_id, MakeResponse(request.id, "default", parsed));
      return;
    }
    if (request.op == "ping") {
      Reply(conn_id, request, Status::Ok(), Flag("pong", true));
      return;
    }
    if (request.op == "stats") {
      Reply(conn_id, request, Status::Ok(), StatsJson());
      return;
    }
    if (request.op == "pause" || request.op == "resume") {
      {
        std::lock_guard<std::mutex> lock(mu);
        paused = request.op == "pause";
      }
      cv.notify_all();
      Reply(conn_id, request, Status::Ok());
      return;
    }
    if (request.op == "cancel") {
      HandleCancel(conn_id, request);
      return;
    }
    if (request.op == "shutdown") {
      {
        std::lock_guard<std::mutex> lock(mu);
        draining = true;
      }
      cv.notify_all();
      Reply(conn_id, request, Status::Ok(), Flag("draining", true));
      return;
    }
    if (request.op == "attack" || request.op == "eval") {
      Admit(conn_id, request);
      return;
    }
    Reply(conn_id, request,
          status::InvalidInput("unknown op \"" + request.op + "\""));
  }

  // Answers `request` on the IO thread: the envelope for `status`, with
  // `result` attached unless it is null.
  void Reply(int conn_id, const Request& request, const Status& status,
             obs::Json result = obs::Json()) {
    obs::Json response = MakeResponse(request.id, request.tenant, status);
    if (result.type != obs::Json::Type::kNull) {
      response.object["result"] = std::move(result);
    }
    Respond(conn_id, response);
  }

  void Admit(int conn_id, const Request& request) {
    JobRequest spec;
    Status admitted = ParseJob(request, &spec);
    const double budget_ms = spec.deadline_ms > 0.0 ? spec.deadline_ms : -1.0;
    Job job(request, std::move(spec), budget_ms, conn_id);
    std::unique_lock<std::mutex> lock(mu);
    if (admitted.ok()) admitted = Accept(&job);
    obs::GetCounter(TenantPrefix(request.tenant) +
                    (admitted.ok() ? "accepted" : "rejected"))
        ->Add(1);
    if (!admitted.ok()) {
      lock.unlock();
      Reply(conn_id, request, admitted);
      return;
    }
    Push(std::move(job));
    lock.unlock();
    cv.notify_one();
    // No response yet — it arrives when the job completes.
  }

  // Under `mu`: refuses a well-formed job the server cannot take now, or
  // journals its acceptance.
  Status Accept(Job* job) {
    if (draining || stopping) {
      return status::Unavailable("server is draining");
    }
    if (static_cast<int>(queue.size()) >= options.max_queue) {
      return status::ResourceExhausted("job queue is full (max_queue=" +
                                       std::to_string(options.max_queue) +
                                       ")");
    }
    if (journal == nullptr) return Status::Ok();
    job->uid = journal->NextUid();
    // Attack jobs get a server-assigned checkpoint path unless the
    // client chose one: that file is what lets a crash-recovered
    // campaign resume from its last committed flip.
    std::string& checkpoint = job->spec.attack.checkpoint_path;
    if (job->op == "attack" && checkpoint.empty()) {
      checkpoint = Journal::CheckpointPath(journal->dir(), job->uid);
      job->raw.object["checkpoint"] = Str(checkpoint);
    }
    // If the record cannot be made durable the job is refused rather
    // than silently accepted non-durably.
    return JournalState(*job, JobState::kAccepted)
        .WithContext("journal accept");
  }

  // Under `mu`: queue push and pop are the only places the queue changes
  // size, and so the only places that set serve.queue_depth.
  void Push(Job job) {
    queue.push_back(std::move(job));
    obs::GetGauge("serve.queue_depth")->Set(static_cast<double>(queue.size()));
  }

  Job Pop(size_t i) {
    Job job = std::move(queue[i]);
    queue.erase(queue.begin() + static_cast<long>(i));
    obs::GetGauge("serve.queue_depth")->Set(static_cast<double>(queue.size()));
    return job;
  }

  // Journals `job` entering `state`, the one builder of every record:
  // ACCEPTED carries the request and the attempts already spent, a
  // later record the attempt it is about and, for RETRYING and FAILED,
  // the failure's `code`. A no-op without a journal.
  Status JournalState(const Job& job, JobState state,
                      const std::string& code = "") {
    if (journal == nullptr) return Status::Ok();
    JournalRecord record;
    record.uid = job.uid;
    record.state = state;
    record.client_id = job.id;
    record.tenant = job.tenant;
    record.attempt = job.attempt;
    record.code = code;
    const double left_s = job.deadline.RemainingSeconds();
    record.remaining_ms = std::isinf(left_s) ? -1.0 : left_s * 1e3;
    if (state == JobState::kAccepted) {
      record.attempt = job.attempt - 1;
      record.request = job.raw;
    }
    return journal->AppendRecord(std::move(record));
  }

  void HandleCancel(int conn_id, const Request& request) {
    const status::StatusOr<int64_t> parsed = CancelTarget(request);
    if (!parsed.ok()) {
      Reply(conn_id, request, parsed.status());
      return;
    }
    const int64_t target = *parsed;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (Job& job : queue) {
        if (job.id == target && job.tenant == request.tenant) {
          job.cancelled = true;
          job.deadline.RequestCancel();
          found = true;
        }
      }
      if (running.id == target && running.tenant == request.tenant) {
        running.deadline.RequestCancel();
        found = true;
      }
    }
    // A job waiting out a retry backoff becomes due immediately once
    // cancelled; wake the scheduler so it reaps it now.
    cv.notify_all();
    Reply(conn_id, request, Status::Ok(), Flag("found", found));
  }

  obs::Json StatsJson() {
    std::lock_guard<std::mutex> lock(mu);
    obs::Json stats = obs::Json::MakeObject();
    stats.object["queue_depth"] =
        Num(static_cast<double>(queue.size()));
    stats.object["paused"] = obs::Json::MakeBool(paused);
    stats.object["draining"] = obs::Json::MakeBool(draining);
    stats.object["graph_cache"] = CounterGroup(
        "serve.graph_cache.", {{"hits", "hit"}, {"misses", "miss"}});
    obs::Json journal_json = CounterGroup(
        "serve.journal.", {{"appends"}, {"append_errors"}, {"compactions"}});
    journal_json.object["enabled"] =
        obs::Json::MakeBool(journal != nullptr);
    stats.object["journal"] = std::move(journal_json);
    obs::Json recovery = obs::Json::MakeObject();
    recovery.object["requeued_jobs"] =
        Num(static_cast<double>(recovery_info.requeued_jobs));
    recovery.object["replayed_records"] =
        Num(static_cast<double>(recovery_info.replayed_records));
    recovery.object["corrupt_records"] =
        Num(static_cast<double>(recovery_info.corrupt_records));
    recovery.object["truncated_bytes"] =
        Num(static_cast<double>(recovery_info.truncated_bytes));
    recovery.object["recovery_ms"] = Num(recovery_info.recovery_ms);
    stats.object["recovery"] = std::move(recovery);
    stats.object["retry"] = CounterGroup(
        "serve.retry.", {{"attempts"}, {"succeeded"}, {"exhausted"}});
    obs::Json tenants_json = obs::Json::MakeObject();
    for (const std::string& name : tenants) {
      const std::string prefix = "serve.tenant." + name + ".";
      obs::Json entry = CounterGroup(
          prefix, {{"accepted"}, {"rejected"}, {"completed"}, {"failed"},
                   {"cancelled"}});
      for (const std::string field : {"queue_ms", "run_ms"}) {
        const obs::Histogram* histogram = LatencyHistogram(prefix + field);
        entry.object[field + "_count"] =
            Num(static_cast<double>(histogram->total_count()));
        entry.object[field + "_sum"] = Num(histogram->sum());
      }
      tenants_json.object[name] = std::move(entry);
    }
    stats.object["tenants"] = std::move(tenants_json);
    return stats;
  }

  // ---- job execution (scheduler thread) ----------------------------

  const graph::Graph* CachedGraph(const std::string& path,
                                  Status* failure) {
    const auto it = graph_cache.find(path);
    if (it != graph_cache.end()) {
      obs::GetCounter("serve.graph_cache.hit")->Add(1);
      return &it->second;
    }
    obs::GetCounter("serve.graph_cache.miss")->Add(1);
    status::StatusOr<graph::Graph> loaded = graph::LoadGraph(path);
    if (!loaded.ok()) {
      *failure = loaded.status();
      return nullptr;
    }
    if (graph_cache.size() >= kMaxGraphCacheEntries) graph_cache.clear();
    return &graph_cache.emplace(path, std::move(loaded).value())
                .first->second;
  }

  Status RunAttackJob(const Job& job, const graph::Graph& g,
                      obs::Json* result) {
    const eval::AttackRun run =
        eval::RunAttackOp(g, job.spec.attack, job.deadline);
    if (run.result.status.code() == status::Code::kInvalidInput) {
      return run.result.status;
    }
    obs::Json res = obs::Json::MakeObject();
    res.object["attacker"] = Str(run.attacker);
    res.object["edge_modifications"] =
        Num(static_cast<double>(run.result.edge_modifications));
    res.object["feature_modifications"] =
        Num(static_cast<double>(run.result.feature_modifications));
    res.object["elapsed_seconds"] = Num(run.result.elapsed_seconds);
    res.object["final_objective"] = Num(run.result.final_objective);
    if (job.spec.return_flips) {
      obs::Json flips = obs::Json::MakeArray();
      for (const attack::Flip& flip : run.result.flips) {
        obs::Json triple = obs::Json::MakeArray();
        triple.array.push_back(Num(flip.is_feature ? 1 : 0));
        triple.array.push_back(Num(flip.a));
        triple.array.push_back(Num(flip.b));
        flips.array.push_back(std::move(triple));
      }
      res.object["flips"] = std::move(flips);
    }
    if (!job.spec.out.empty()) {
      const Status saved = graph::SaveGraph(run.result.poisoned, job.spec.out);
      if (!saved.ok()) return saved;
      res.object["out"] = Str(job.spec.out);
    }
    *result = std::move(res);
    return run.result.status;
  }

  Status RunEvalJob(const Job& job, const graph::Graph& g,
                    obs::Json* result) {
    const eval::EvalRun run = eval::RunEvalOp(g, job.spec.eval, job.deadline);
    const eval::DefenseEvaluation& evaluation = run.evaluation;
    *result = obs::Json::MakeObject();
    result->object["defender"] = Str(run.defender);
    result->object["accuracy_mean"] = Num(evaluation.accuracy.mean);
    result->object["accuracy_std"] = Num(evaluation.accuracy.std);
    result->object["mean_train_seconds"] =
        Num(evaluation.mean_train_seconds);
    result->object["ok_runs"] = Num(evaluation.ok_runs);
    return evaluation.status;
  }

  // Drops the server-assigned checkpoint of a terminal job (never a
  // client-chosen path). Best-effort: the journal record is what makes
  // the job terminal.
  void CleanupCheckpoint(const Job& job) {
    if (journal == nullptr || job.uid <= 0) return;
    const std::string& path = job.spec.attack.checkpoint_path;
    if (path == Journal::CheckpointPath(journal->dir(), job.uid)) {
      ::unlink(path.c_str());
    }
  }

  // Runs an admitted job; its result object, if it produced one, goes
  // to `*result`.
  Status RunJob(const Job& job, obs::Json* result) {
    if (PEEGA_FAILPOINT("serve.execute")) {
      return status::NumericFault("injected failpoint serve.execute");
    }
    Status failure;
    const graph::Graph* g = CachedGraph(job.spec.graph, &failure);
    if (g == nullptr) return failure.WithContext("load job graph");
    return job.op == "attack" ? RunAttackJob(job, *g, result)
                              : RunEvalJob(job, *g, result);
  }

  // Picks the next due job, FIFO among due ones. A retry waiting out
  // its backoff is skipped until its instant arrives (the scheduler
  // sleeps at most until the earliest one); a cancelled job is always
  // due so it can be reaped immediately. Returns false once the server
  // should stop.
  bool NextJob(Job* out) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (stopping) return false;
      if ((!paused || draining) && !queue.empty()) {
        const double now = uptime.Millis();
        double next_due = -1.0;
        for (size_t i = 0; i < queue.size(); ++i) {
          Job& candidate = queue[i];
          if (candidate.cancelled || candidate.not_before_ms <= now) {
            *out = Pop(i);
            running = {out->id, out->tenant, out->deadline};
            return true;
          }
          if (next_due < 0.0 || candidate.not_before_ms < next_due) {
            next_due = candidate.not_before_ms;
          }
        }
        // Everything queued is a retry waiting out its backoff.
        cv.wait_for(lock,
                    obs::DurationMs(next_due - uptime.Millis() + 0.5));
        continue;
      }
      if (draining && queue.empty()) {
        stopping = true;
        return false;
      }
      cv.wait(lock);
    }
  }

  // One attempt at `job`. A job cancelled or out of budget while queued
  // is answered with that code instead of running.
  Outcome Attempt(const Job& job) {
    Outcome outcome;
    if (job.cancelled) {
      outcome.status = status::Cancelled("job cancelled while queued");
      return outcome;
    }
    outcome.status = job.deadline.Check("serve queue wait");
    if (!outcome.status.ok()) return outcome;
    // Post-admission records are best effort: a failed append degrades
    // durability, not availability (serve.journal.append_errors counts
    // it inside the journal).
    JournalState(job, JobState::kRunning).IgnoreError();
    outcome.executed = true;
    try {
      outcome.status = RunJob(job, &outcome.result);
    } catch (...) {
      // A job must never take the server down; report and move on.
      outcome.internal = true;
    }
    return outcome;
  }

  // Runs after every attempt: frees the running slot and records the
  // tenant's queue wait and run time, then requeues the job or ends it.
  // A transient failure re-enters the queue with deterministic backoff
  // until the attempt budget is spent; the client response waits for
  // the final attempt. Retries bypass admission (no max_queue check, no
  // accepted counter): the job was admitted exactly once.
  void Settle(Job job, Outcome outcome, double queue_ms, double run_ms) {
    const Status& status = outcome.status;
    const bool done = status.ok() && !outcome.internal;
    const bool cancelled = status.code() == status::Code::kCancelled;
    const std::string code =
        outcome.internal ? "INTERNAL" : status::CodeName(status.code());
    const bool transient_failure = outcome.executed && !outcome.internal &&
                                   status::IsTransient(status.code());
    const bool retry =
        transient_failure && job.attempt < options.max_attempts;
    std::string line;  // the response of a job that ends here
    if (retry) {
      JournalState(job, JobState::kRetrying, code).IgnoreError();
    } else {
      if (transient_failure) {
        obs::GetCounter("serve.retry.exhausted")->Add(1);
      }
      if (outcome.executed && done && job.attempt > 1) {
        obs::GetCounter("serve.retry.succeeded")->Add(1);
      }
      JournalState(job,
                   done        ? JobState::kDone
                   : cancelled ? JobState::kCancelled
                               : JobState::kFailed,
                   done ? "" : code)
          .IgnoreError();
      CleanupCheckpoint(job);
      obs::Json response = MakeResponse(job.id, job.tenant, status);
      if (outcome.internal) {
        response.object["ok"] = obs::Json::MakeBool(false);
        response.object["code"] = Str(code);
        response.object["error"] =
            Str("unexpected exception while running job");
      }
      if (outcome.result.type != obs::Json::Type::kNull) {
        response.object["result"] = std::move(outcome.result);
      }
      response.object["queue_ms"] = Num(queue_ms);
      response.object["run_ms"] = Num(run_ms);
      response.object["attempts"] = Num(job.attempt);
      line = EncodeLine(response);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      running = RunningJob();
      const std::string tenant = TenantPrefix(job.tenant);
      LatencyHistogram(tenant + "queue_ms")->Observe(queue_ms);
      LatencyHistogram(tenant + "run_ms")->Observe(run_ms);
      if (retry) {
        const RetryPolicy policy{options.max_attempts,
                                 options.retry_backoff_ms,
                                 options.retry_backoff_max_ms};
        obs::GetCounter("serve.retry.attempts")->Add(1);
        job.attempt += 1;
        job.not_before_ms =
            uptime.Millis() + RetryBackoffMs(policy, job.attempt);
        job.waited.Restart();
        Push(std::move(job));
        return;
      }
      obs::GetCounter(tenant + (done        ? "completed"
                                : cancelled ? "cancelled"
                                            : "failed"))
          ->Add(1);
      if (job.conn_id >= 0) outbox.emplace_back(job.conn_id, std::move(line));
    }
    WakeIo();
  }

  void SchedulerLoop() {
    Job job;
    while (NextJob(&job)) {
      const double queue_ms = job.waited.Millis();
      const obs::StopWatch run_watch;
      Outcome outcome = Attempt(job);
      Settle(std::move(job), std::move(outcome), queue_ms, run_watch.Millis());
    }
    WakeIo();
  }

  // ---- socket event loop (IO thread) -------------------------------

  void DrainOutbox() {
    std::vector<std::pair<int, std::string>> pending;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.swap(outbox);
    }
    for (auto& [conn_id, line] : pending) {
      const auto it = conns.find(conn_id);
      if (it != conns.end() && !it->second.doomed) {
        it->second.outbuf += line;
      }
    }
  }

  bool Stopping() {
    std::lock_guard<std::mutex> lock(mu);
    return stopping;
  }

  void CloseConnection(int conn_id) {
    const auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
  }

  void IoLoop() {
    for (;;) {
      DrainOutbox();
      if (Stopping()) {
        bool flushed = true;
        for (auto& [id, conn] : conns) {
          if (!conn.outbuf.empty()) flushed = false;
        }
        if (flushed) break;
      }
      std::vector<pollfd> fds;
      std::vector<int> ids;  // conn id per pollfd (or -1 / -2)
      fds.push_back({wake_read, POLLIN, 0});
      ids.push_back(-1);
      if (listen_fd >= 0) {
        fds.push_back({listen_fd, POLLIN, 0});
        ids.push_back(-2);
      }
      for (auto& [id, conn] : conns) {
        short events = POLLIN;
        if (!conn.outbuf.empty()) events |= POLLOUT;
        fds.push_back({conn.fd, events, 0});
        ids.push_back(id);
      }
      const int ready = ::poll(fds.data(), fds.size(), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      std::vector<int> to_close;
      for (size_t i = 0; i < fds.size(); ++i) {
        const short revents = fds[i].revents;
        if (revents == 0) continue;
        if (ids[i] == -1) {  // wake pipe: swallow the bytes
          char sink[256];
          while (::read(wake_read, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (ids[i] == -2) {  // new connection
          for (;;) {
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) break;
            if (PEEGA_FAILPOINT("serve.accept")) {
              ::close(fd);  // simulated accept failure: drop the peer
              continue;
            }
            SetNonBlocking(fd);
            Connection conn;
            conn.fd = fd;
            conns.emplace(next_conn_id++, conn);
          }
          continue;
        }
        const int conn_id = ids[i];
        auto it = conns.find(conn_id);
        if (it == conns.end()) continue;
        Connection& conn = it->second;
        bool dead = (revents & (POLLERR | POLLNVAL)) != 0;
        if (!dead && (revents & POLLIN) != 0) {
          char buf[4096];
          for (;;) {
            const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
            if (n > 0) {
              conn.inbuf.append(buf, static_cast<size_t>(n));
              if (conn.inbuf.size() > kMaxRequestLineBytes) {
                dead = true;  // protocol abuse: unbounded line
                break;
              }
              continue;
            }
            if (n == 0) {
              dead = true;  // peer closed
            }
            break;  // n < 0: EAGAIN (done) or error handled below
          }
          size_t start = 0;
          for (;;) {
            const size_t nl = conn.inbuf.find('\n', start);
            if (nl == std::string::npos) break;
            const std::string line = conn.inbuf.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty()) HandleLine(conn_id, line);
            if (conn.doomed) break;  // drop the rest of the burst
          }
          conn.inbuf.erase(0, start);
          if (conn.doomed) dead = true;
        }
        if ((revents & POLLOUT) != 0 && !conn.outbuf.empty()) {
          const ssize_t n =
              ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
          if (n > 0) conn.outbuf.erase(0, static_cast<size_t>(n));
        }
        if ((revents & POLLHUP) != 0 && conn.outbuf.empty()) dead = true;
        if (dead && conn.outbuf.empty()) to_close.push_back(conn_id);
        if (dead && !conn.outbuf.empty()) {
          // Peer half-closed but responses are still pending: keep the
          // fd until the outbuf flushes (or write fails).
          const ssize_t n =
              ::write(conn.fd, conn.outbuf.data(), conn.outbuf.size());
          if (n > 0) {
            conn.outbuf.erase(0, static_cast<size_t>(n));
          } else {
            to_close.push_back(conn_id);
          }
          if (conn.outbuf.empty()) to_close.push_back(conn_id);
        }
      }
      for (const int conn_id : to_close) CloseConnection(conn_id);
    }
    for (auto& [id, conn] : conns) ::close(conn.fd);
    conns.clear();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(options.socket_path.c_str());
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  Shutdown();
  Wait();
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
}

status::Status Server::Start() {
  Impl& s = *impl_;
  sockaddr_un addr;
  PEEGA_RETURN_IF_ERROR(UnixAddress(s.options.socket_path, &addr), "serve");
  if (s.options.max_queue < 1) {
    return status::InvalidInput("serve: max_queue must be >= 1");
  }
  if (s.options.max_attempts < 1) {
    return status::InvalidInput("serve: max_attempts must be >= 1");
  }
  if (!(s.options.retry_backoff_ms >= 0.0)) {
    return status::InvalidInput("serve: retry_backoff_ms must be >= 0");
  }
  // Durability first: replay the journal and re-enqueue non-terminal
  // jobs before the socket opens, so recovered work is ahead of any new
  // admission in the FIFO.
  if (!s.options.journal_dir.empty()) {
    obs::StopWatch recovery_watch;
    ReplayResult replay;
    status::StatusOr<std::unique_ptr<Journal>> journal =
        Journal::Open(s.options.journal_dir, &replay);
    if (!journal.ok()) {
      return journal.status().WithContext("serve journal");
    }
    s.journal = std::move(journal).value();
    s.recovery_info.replayed_records = replay.replayed_records;
    s.recovery_info.corrupt_records = replay.corrupt_records;
    s.recovery_info.truncated_bytes = replay.truncated_bytes;
    s.recovery_info.warnings = replay.warnings;
    for (RecoveredJob& recovered : replay.jobs) {
      Request request;
      JobRequest spec;
      Status parsed = ParseRequest(std::move(recovered.request), &request);
      if (parsed.ok()) parsed = ParseJob(request, &spec);
      // The job goes by its record's id and tenant.
      request.id = recovered.client_id;
      request.tenant = recovered.tenant;
      // The client connection died with the old process; the budget is
      // what was left when the last record was written, not a fresh one.
      Impl::Job job(std::move(request), std::move(spec),
                    recovered.remaining_ms, /*conn=*/-1);
      job.uid = recovered.uid;
      job.attempt = recovered.next_attempt;
      if (!parsed.ok()) {
        // The job's fields are not guessed: it fails, durably.
        s.JournalState(job, JobState::kFailed,
                       status::CodeName(parsed.code()))
            .IgnoreError();
        obs::GetCounter(s.TenantPrefix(job.tenant) + "failed")->Add(1);
        s.recovery_info.warnings.push_back(
            "job uid " + std::to_string(job.uid) + ": " + parsed.ToString());
        continue;
      }
      s.Push(std::move(job));
    }
    s.recovery_info.requeued_jobs = static_cast<int>(s.queue.size());
    obs::GetCounter("serve.recovery.requeued_jobs")
        ->Add(s.recovery_info.requeued_jobs);
    obs::GetCounter("serve.recovery.replayed_records")
        ->Add(replay.replayed_records);
    obs::GetCounter("serve.recovery.corrupt_records")
        ->Add(replay.corrupt_records);
    s.recovery_info.recovery_ms = recovery_watch.Millis();
  }
  ::unlink(s.options.socket_path.c_str());
  int pipe_fds[2];
  std::string failed;  // the call that failed, if one did
  s.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (s.listen_fd < 0) {
    failed = "socket()";
  } else if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
    failed = "bind(" + s.options.socket_path + ")";
  } else if (::listen(s.listen_fd, kListenBacklog) != 0) {
    failed = "listen()";
  } else if (::pipe(pipe_fds) != 0) {
    failed = "pipe()";
  }
  if (!failed.empty()) {
    const std::string detail = std::strerror(errno);
    if (s.listen_fd >= 0) ::close(s.listen_fd);
    s.listen_fd = -1;
    ::unlink(s.options.socket_path.c_str());
    return status::IoError("serve: " + failed + " failed: " + detail);
  }
  SetNonBlocking(s.listen_fd);
  s.wake_read = pipe_fds[0];
  s.wake_write = pipe_fds[1];
  SetNonBlocking(s.wake_read);
  SetNonBlocking(s.wake_write);
  s.io_thread = std::make_unique<parallel::WorkerThread>(
      [impl = impl_.get()] { impl->IoLoop(); });
  s.scheduler_thread = std::make_unique<parallel::WorkerThread>(
      [impl = impl_.get()] { impl->SchedulerLoop(); });
  return status::Status::Ok();
}

void Server::Wait() {
  if (impl_->scheduler_thread != nullptr) impl_->scheduler_thread->Join();
  if (impl_->io_thread != nullptr) impl_->io_thread->Join();
}

void Server::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->draining = true;
  }
  impl_->cv.notify_all();
  impl_->WakeIo();
}

const RecoveryInfo& Server::recovery() const {
  return impl_->recovery_info;
}

}  // namespace repro::serve
