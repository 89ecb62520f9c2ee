#include "serve/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "debug/failpoints.h"
#include "obs/metrics.h"
#include "obs/record.h"

namespace repro::serve {

namespace {

using status::Status;

// Auto-compaction trigger: once the file holds this many records AND
// most of them belong to terminal jobs, rewrite it. Both thresholds are
// deterministic (record counts, no clocks) so tests can pin exactly
// when a compaction happens.
constexpr int64_t kCompactMinRecords = 1024;

obs::Json Num(double v) { return obs::Json::MakeNumber(v); }

status::Status Errno(const std::string& what) {
  return status::IoError(what + ": " + std::strerror(errno));
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kAccepted:
      return "ACCEPTED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kRetrying:
      return "RETRYING";
    case JobState::kDone:
      return "DONE";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

bool ParseJobState(const std::string& name, JobState* out) {
  for (const JobState state :
       {JobState::kAccepted, JobState::kRunning, JobState::kRetrying,
        JobState::kDone, JobState::kFailed, JobState::kCancelled}) {
    if (name == JobStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

std::string EncodeJournalRecord(const JournalRecord& record) {
  obs::Json doc = obs::Json::MakeObject();
  doc.object["v"] = Num(kJournalVersion);
  doc.object["seq"] = Num(static_cast<double>(record.seq));
  doc.object["uid"] = Num(static_cast<double>(record.uid));
  doc.object["state"] = obs::Json::MakeString(JobStateName(record.state));
  doc.object["id"] = Num(static_cast<double>(record.client_id));
  doc.object["tenant"] = obs::Json::MakeString(record.tenant);
  doc.object["attempt"] = Num(record.attempt);
  doc.object["remaining_ms"] = Num(record.remaining_ms);
  if (!record.code.empty()) {
    doc.object["code"] = obs::Json::MakeString(record.code);
  }
  if (record.state == JobState::kAccepted) {
    doc.object["request"] = record.request;
  }
  return obs::Seal(std::move(doc));
}

status::Status DecodeJournalRecord(const std::string& line,
                                   const std::string& where,
                                   JournalRecord* out) {
  const auto bad = [&where](const std::string& why) {
    return status::IoError(where + ": bad journal record: " + why);
  };
  obs::Json doc;
  std::string error;
  if (obs::Unseal(line, &doc, &error) != obs::Unsealed::kOk) {
    return bad(error);
  }
  int64_t version = 0;
  if (!obs::ReadInteger(doc, "v", 0, obs::kMaxExactInteger, &version,
                        &error)) {
    return bad(error);
  }
  if (version != kJournalVersion) {
    return bad("unsupported journal version " + std::to_string(version));
  }
  std::string state;
  if (!obs::ReadString(doc, "state", &state, &error)) return bad(error);
  if (!ParseJobState(state, &out->state)) {
    return bad("unknown state \"" + state + "\"");
  }
  constexpr int64_t kMax = obs::kMaxExactInteger;
  int64_t attempt = 0;
  if (!obs::ReadInteger(doc, "seq", 0, kMax, &out->seq, &error) ||
      !obs::ReadInteger(doc, "uid", 0, kMax, &out->uid, &error) ||
      !obs::ReadInteger(doc, "id", -kMax, kMax, &out->client_id, &error) ||
      !obs::ReadInteger(doc, "attempt", 0, std::numeric_limits<int>::max(),
                        &attempt, &error) ||
      !obs::ReadFinite(doc, "remaining_ms", &out->remaining_ms, &error) ||
      !obs::ReadString(doc, "tenant", &out->tenant, &error)) {
    return bad(error);
  }
  out->attempt = static_cast<int>(attempt);
  out->code.clear();
  if (doc.Find("code") != nullptr &&
      !obs::ReadString(doc, "code", &out->code, &error)) {
    return bad(error);
  }
  out->request = obs::Json();
  if (out->state == JobState::kAccepted) {
    const obs::Json* request = doc.Find("request");
    if (request == nullptr ||
        request->type != obs::Json::Type::kObject) {
      return bad("ACCEPTED record has no request object");
    }
    out->request = *request;
  }
  return Status::Ok();
}

namespace {

// Folds `record` into `live`: one ACCEPTED-shaped entry per live job,
// whose attempt counts the attempts already spent. ACCEPTED inserts,
// RUNNING(n) folds to n-1 (killed mid-run, the re-run repeats attempt n
// and its checkpoint has the progress) and RETRYING(n) to n (attempt n
// failed), a terminal state erases. False for a RUNNING/RETRYING record
// of a job that is not live.
bool Fold(const JournalRecord& record,
          std::map<int64_t, JournalRecord>* live) {
  if (record.state == JobState::kAccepted) {
    (*live)[record.uid] = record;
    return true;
  }
  if (IsTerminal(record.state)) {
    live->erase(record.uid);
    return true;
  }
  const auto it = live->find(record.uid);
  if (it == live->end()) return false;
  it->second.attempt = record.state == JobState::kRunning
                           ? record.attempt - 1
                           : record.attempt;
  it->second.remaining_ms = record.remaining_ms;
  return true;
}

// Replays `dir`/journal.jsonl into `*result` and the live fold `*live`
// (see ReplayJournal). uids are assigned at admission, so the fold's uid
// order is admission order.
Status Replay(const std::string& dir, ReplayResult* result,
              std::map<int64_t, JournalRecord>* live) {
  const std::string path = dir + "/" + kJournalFileName;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (errno == ENOENT) return Status::Ok();  // fresh journal directory
    return Errno("journal open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  size_t pos = 0;
  int64_t line_no = 0;
  while (pos < content.size()) {
    ++line_no;
    const size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) {
      // Torn tail: the process died mid-append. Drop the fragment
      // loudly; Journal::Open's compaction rewrite discards the bytes.
      result->truncated_bytes = static_cast<int64_t>(content.size() - pos);
      result->warnings.push_back(
          path + ":" + std::to_string(line_no) + ": torn tail (" +
          std::to_string(result->truncated_bytes) + " bytes) truncated");
      break;
    }
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    JournalRecord record;
    const Status decoded = DecodeJournalRecord(line, where, &record);
    if (!decoded.ok()) {
      // Bit rot / torn rewrite: skip this record, keep replaying — a
      // later valid record may still recover another job.
      ++result->corrupt_records;
      result->warnings.push_back(decoded.message());
      continue;
    }
    ++result->replayed_records;
    if (record.seq > result->max_seq) result->max_seq = record.seq;
    if (record.uid > result->max_uid) result->max_uid = record.uid;
    if (record.state == JobState::kDone) ++result->done;
    if (record.state == JobState::kFailed) ++result->failed;
    if (record.state == JobState::kCancelled) ++result->cancelled;
    if (!Fold(record, live)) {
      result->warnings.push_back(where + ": state record for unknown uid " +
                                 std::to_string(record.uid));
    }
  }
  for (const auto& [uid, job] : *live) {
    result->jobs.push_back(RecoveredJob{uid, job.client_id, job.tenant,
                                        job.request, job.attempt + 1,
                                        job.remaining_ms});
  }
  return Status::Ok();
}

}  // namespace

status::StatusOr<ReplayResult> ReplayJournal(const std::string& dir) {
  ReplayResult result;
  std::map<int64_t, JournalRecord> live;
  const Status replayed = Replay(dir, &result, &live);
  if (!replayed.ok()) return replayed;
  return result;
}

double RetryBackoffMs(const RetryPolicy& policy, int next_attempt) {
  if (next_attempt <= 2) return policy.backoff_base_ms;
  const int exponent = next_attempt - 2 > 30 ? 30 : next_attempt - 2;
  const double delay =
      policy.backoff_base_ms * static_cast<double>(1u << exponent);
  return delay < policy.backoff_max_ms ? delay : policy.backoff_max_ms;
}

std::string Journal::CheckpointPath(const std::string& dir, int64_t uid) {
  return dir + "/ckpt-" + std::to_string(uid) + ".json";
}

Journal::Journal(std::string dir, std::string path)
    : dir_(std::move(dir)), path_(std::move(path)) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

status::StatusOr<std::unique_ptr<Journal>> Journal::Open(
    const std::string& dir, ReplayResult* replay) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("journal mkdir " + dir);
  }
  std::unique_ptr<Journal> journal(
      new Journal(dir, dir + "/" + kJournalFileName));
  ReplayResult replayed;
  const Status status = Replay(dir, &replayed, &journal->live_);
  if (!status.ok()) return status;
  journal->last_seq_ = replayed.max_seq;
  journal->last_uid_ = replayed.max_uid;
  // Rotate on open: rewrites the journal compacted, which also discards
  // any torn tail or corrupt records the replay skipped.
  PEEGA_RETURN_IF_ERROR(journal->CompactLocked(), "journal open " + dir);
  if (replay != nullptr) *replay = std::move(replayed);
  return journal;
}

int64_t Journal::NextUid() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++last_uid_;
}

status::Status Journal::AppendRecord(JournalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(record);
}

status::Status Journal::AppendLocked(JournalRecord& record) {
  if (PEEGA_FAILPOINT("serve.journal.append")) {
    obs::GetCounter("serve.journal.append_errors")->Add(1);
    return status::IoError("injected failpoint serve.journal.append");
  }
  if (records_in_file_ >= kCompactMinRecords &&
      static_cast<int64_t>(live_.size()) * 4 < records_in_file_) {
    PEEGA_RETURN_IF_ERROR(CompactLocked(), "journal auto-compact");
  }
  record.seq = ++last_seq_;
  std::string error;
  if (!obs::AppendDurably(fd_, EncodeJournalRecord(record), &error)) {
    obs::GetCounter("serve.journal.append_errors")->Add(1);
    return status::IoError("journal append " + path_ + ": " + error);
  }
  ++records_in_file_;
  obs::GetCounter("serve.journal.appends")->Add(1);
  Fold(record, &live_);
  return Status::Ok();
}

status::Status Journal::CompactLocked() {
  std::string bytes;
  for (auto& [uid, record] : live_) {
    record.seq = ++last_seq_;
    bytes += EncodeJournalRecord(record);
  }
  std::string error;
  if (!obs::ReplaceFile(path_, bytes, &error)) {
    return status::IoError("journal rewrite: " + error);
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return Errno("journal reopen " + path_);
  records_in_file_ = static_cast<int64_t>(live_.size());
  obs::GetCounter("serve.journal.compactions")->Add(1);
  return Status::Ok();
}

}  // namespace repro::serve
