// Durability contracts of the serve write-ahead journal (PR 10):
//   - records: encode/decode round-trips every state, CRC corruption is
//     IO_ERROR with path:line context, torn tails truncate loudly;
//   - replay: folding is idempotent (double replay == single replay),
//     Open() compacts terminal jobs away;
//   - retry: deterministic exponential backoff (pinned delays), a
//     transient failure re-runs and succeeds, a permanent one never
//     retries, an exhausted budget surfaces the transient code;
//   - recovery: an ACCEPTED-but-never-finished job is re-enqueued and
//     completed by a fresh server;
//   - crash: a `graphguard serve` process SIGKILLed mid-campaign is
//     restarted with the same --journal and produces a poisoned graph
//     bitwise identical to an uninterrupted run's.
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "debug/failpoints.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/random.h"
#include "obs/crc32.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "status/status.h"

namespace repro {
namespace {

using obs::Json;
using serve::JobState;
using serve::Journal;
using serve::JournalRecord;
using serve::ReplayResult;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/journal_test_" + tag;
}

std::string MakeGraphFile(const std::string& tag) {
  linalg::Rng rng(20240502);
  const graph::Graph g = graph::MakeCoraLike(&rng, 0.1);
  const std::string path = TempPath(tag + ".txt");
  EXPECT_TRUE(graph::SaveGraph(g, path).ok());
  return path;
}

Json MakeRequest(int64_t id, const std::string& tenant,
                 const std::string& op) {
  Json request = Json::MakeObject();
  request.object["id"] = Json::MakeNumber(static_cast<double>(id));
  request.object["tenant"] = Json::MakeString(tenant);
  request.object["op"] = Json::MakeString(op);
  return request;
}

Json AttackRequest(int64_t id, const std::string& tenant,
                   const std::string& graph_path) {
  Json request = MakeRequest(id, tenant, "attack");
  request.object["graph"] = Json::MakeString(graph_path);
  request.object["rate"] = Json::MakeNumber(0.05);
  request.object["seed"] = Json::MakeNumber(11);
  return request;
}

std::string Code(const Json& response) {
  return serve::GetString(response, "code", "<missing>");
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Fresh journal directory per test: stale records (or server-assigned
// checkpoints) from a previous run must not leak into this one.
std::string FreshJournalDir(const std::string& tag) {
  const std::string dir = TempPath(tag + ".journal");
  std::remove((dir + "/" + serve::kJournalFileName).c_str());
  for (int64_t uid = 1; uid <= 8; ++uid) {
    std::remove(Journal::CheckpointPath(dir, uid).c_str());
  }
  ::rmdir(dir.c_str());
  return dir;
}

JournalRecord AcceptedRecord(int64_t uid, int64_t client_id,
                             const std::string& tenant) {
  JournalRecord record;
  record.uid = uid;
  record.state = JobState::kAccepted;
  record.client_id = client_id;
  record.tenant = tenant;
  record.request = MakeRequest(client_id, tenant, "attack");
  return record;
}

TEST(JournalRecordTest, StateNamesRoundTripAndTerminality) {
  for (const JobState state :
       {JobState::kAccepted, JobState::kRunning, JobState::kRetrying,
        JobState::kDone, JobState::kFailed, JobState::kCancelled}) {
    JobState parsed;
    ASSERT_TRUE(serve::ParseJobState(serve::JobStateName(state), &parsed))
        << serve::JobStateName(state);
    EXPECT_EQ(parsed, state);
  }
  JobState ignored;
  EXPECT_FALSE(serve::ParseJobState("EXPLODED", &ignored));
  EXPECT_FALSE(serve::IsTerminal(JobState::kAccepted));
  EXPECT_FALSE(serve::IsTerminal(JobState::kRunning));
  EXPECT_FALSE(serve::IsTerminal(JobState::kRetrying));
  EXPECT_TRUE(serve::IsTerminal(JobState::kDone));
  EXPECT_TRUE(serve::IsTerminal(JobState::kFailed));
  EXPECT_TRUE(serve::IsTerminal(JobState::kCancelled));
}

TEST(JournalRecordTest, EncodeDecodeRoundTrip) {
  JournalRecord accepted = AcceptedRecord(7, 42, "alice");
  accepted.seq = 3;
  accepted.attempt = 1;
  accepted.remaining_ms = 1234.5;
  const std::string line = serve::EncodeJournalRecord(accepted);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  JournalRecord decoded;
  const status::Status status = serve::DecodeJournalRecord(
      line.substr(0, line.size() - 1), "journal.jsonl:1", &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.seq, 3);
  EXPECT_EQ(decoded.uid, 7);
  EXPECT_EQ(decoded.state, JobState::kAccepted);
  EXPECT_EQ(decoded.client_id, 42);
  EXPECT_EQ(decoded.tenant, "alice");
  EXPECT_EQ(decoded.attempt, 1);
  EXPECT_DOUBLE_EQ(decoded.remaining_ms, 1234.5);
  EXPECT_EQ(decoded.request.Dump(), accepted.request.Dump());

  JournalRecord retrying;
  retrying.seq = 4;
  retrying.uid = 7;
  retrying.state = JobState::kRetrying;
  retrying.client_id = 42;
  retrying.tenant = "alice";
  retrying.attempt = 1;
  retrying.code = "NUMERIC_FAULT";
  const std::string retry_line = serve::EncodeJournalRecord(retrying);
  JournalRecord retry_decoded;
  ASSERT_TRUE(serve::DecodeJournalRecord(
                  retry_line.substr(0, retry_line.size() - 1),
                  "journal.jsonl:2", &retry_decoded)
                  .ok());
  EXPECT_EQ(retry_decoded.state, JobState::kRetrying);
  EXPECT_EQ(retry_decoded.code, "NUMERIC_FAULT");
}

TEST(JournalRecordTest, CorruptCrcIsIoErrorWithContext) {
  const std::string line = serve::EncodeJournalRecord(
      AcceptedRecord(1, 9, "alice"));
  // Flip a payload character: the stored CRC no longer matches.
  std::string tampered = line.substr(0, line.size() - 1);
  const size_t at = tampered.find("alice");
  ASSERT_NE(at, std::string::npos);
  tampered[at] = 'b';
  JournalRecord decoded;
  const status::Status status =
      serve::DecodeJournalRecord(tampered, "journal.jsonl:7", &decoded);
  EXPECT_EQ(status.code(), status::Code::kIoError) << status.ToString();
  EXPECT_NE(status.message().find("journal.jsonl:7"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("crc mismatch"), std::string::npos)
      << status.ToString();
}

TEST(JournalRecordTest, FutureVersionIsRejectedNotMisread) {
  // A well-formed record from journal version 99 (valid CRC) must be
  // refused by name, not half-parsed.
  Json doc = Json::MakeObject();
  doc.object["v"] = Json::MakeNumber(99);
  doc.object["seq"] = Json::MakeNumber(1);
  doc.object["uid"] = Json::MakeNumber(1);
  doc.object["state"] = Json::MakeString("DONE");
  doc.object["id"] = Json::MakeNumber(5);
  doc.object["tenant"] = Json::MakeString("alice");
  doc.object["attempt"] = Json::MakeNumber(1);
  doc.object["remaining_ms"] = Json::MakeNumber(-1);
  doc.object["crc"] =
      Json::MakeNumber(static_cast<double>(obs::Crc32(doc.Dump())));
  JournalRecord decoded;
  const status::Status status =
      serve::DecodeJournalRecord(doc.Dump(), "journal.jsonl:1", &decoded);
  EXPECT_EQ(status.code(), status::Code::kIoError) << status.ToString();
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
}

// A record whose seal holds but whose fields do not read is corrupt,
// never read with a default: each required field missing, and values a
// cast could not hold, fail as IO_ERROR naming the field.
TEST(JournalRecordTest, CrcValidRecordWithBadFieldIsCorrupt) {
  const std::string line = serve::EncodeJournalRecord(
      AcceptedRecord(3, 9, "alice"));
  Json good;
  std::string error;
  ASSERT_TRUE(Json::Parse(line, &good, &error)) << error;
  good.object.erase("crc");
  struct Row {
    const char* field;
    Json value;  // null: the field is dropped
  };
  const std::vector<Row> rows = {
      {"seq", Json()},
      {"uid", Json()},
      {"id", Json()},
      {"attempt", Json()},
      {"remaining_ms", Json()},
      {"tenant", Json()},
      {"uid", Json::MakeNumber(-1)},
      {"id", Json::MakeNumber(1e300)},
      {"attempt", Json::MakeNumber(0.5)},
      {"attempt", Json::MakeNumber(4294967296.0)},
      {"code", Json::MakeNumber(3)},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.field) + "=" + row.value.Dump());
    Json doc = good;
    if (row.value.type == Json::Type::kNull) {
      doc.object.erase(row.field);
    } else {
      doc.object[row.field] = row.value;
    }
    doc.object["crc"] =
        Json::MakeNumber(static_cast<double>(obs::Crc32(doc.Dump())));
    JournalRecord decoded;
    const status::Status status =
        serve::DecodeJournalRecord(doc.Dump(), "journal.jsonl:4", &decoded);
    EXPECT_EQ(status.code(), status::Code::kIoError) << status.ToString();
    EXPECT_NE(status.message().find(std::string("\"") + row.field + "\""),
              std::string::npos)
        << status.ToString();
  }
  // A crc no uint32 can hold is malformed, not cast.
  JournalRecord decoded;
  EXPECT_EQ(serve::DecodeJournalRecord(R"({"crc":-1,"v":1})",
                                       "journal.jsonl:5", &decoded)
                .code(),
            status::Code::kIoError);
}

TEST(JournalTest, RetryBackoffIsDeterministic) {
  const serve::RetryPolicy policy{/*max_attempts=*/8,
                                  /*backoff_base_ms=*/100.0,
                                  /*backoff_max_ms=*/5000.0};
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 2), 100.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 3), 200.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 4), 400.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 5), 800.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 6), 1600.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 7), 3200.0);
  // The cap kicks in; it never grows past backoff_max_ms.
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 8), 5000.0);
  EXPECT_DOUBLE_EQ(serve::RetryBackoffMs(policy, 40), 5000.0);
}

TEST(JournalTest, ReplayFoldsRecordsAndIsIdempotent) {
  const std::string dir = FreshJournalDir("replay");
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Journal> journal = std::move(opened).value();
    EXPECT_EQ(replay.replayed_records, 0);

    const int64_t uid1 = journal->NextUid();
    const int64_t uid2 = journal->NextUid();
    EXPECT_EQ(uid1, 1);
    EXPECT_EQ(uid2, 2);
    ASSERT_TRUE(journal->AppendRecord(AcceptedRecord(uid1, 10, "alice")).ok());
    ASSERT_TRUE(journal->AppendRecord(AcceptedRecord(uid2, 11, "bob")).ok());
    JournalRecord running;
    running.uid = uid1;
    running.state = JobState::kRunning;
    running.client_id = 10;
    running.tenant = "alice";
    running.attempt = 1;
    ASSERT_TRUE(journal->AppendRecord(running).ok());
    JournalRecord done = running;
    done.state = JobState::kDone;
    ASSERT_TRUE(journal->AppendRecord(done).ok());
  }

  // uid1 reached DONE; only uid2 is live. Replaying twice must agree.
  for (int round = 0; round < 2; ++round) {
    auto replayed = serve::ReplayJournal(dir);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_EQ(replayed->replayed_records, 4) << "round " << round;
    EXPECT_EQ(replayed->corrupt_records, 0);
    EXPECT_EQ(replayed->truncated_bytes, 0);
    EXPECT_EQ(replayed->done, 1);
    ASSERT_EQ(replayed->jobs.size(), 1u) << "round " << round;
    EXPECT_EQ(replayed->jobs[0].uid, 2);
    EXPECT_EQ(replayed->jobs[0].client_id, 11);
    EXPECT_EQ(replayed->jobs[0].tenant, "bob");
    EXPECT_EQ(replayed->jobs[0].next_attempt, 1);
    EXPECT_EQ(replayed->max_uid, 2);
  }

  // Re-opening compacts: the DONE job's records drop out of the file,
  // and uids keep counting up from the replayed maximum.
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(replay.jobs.size(), 1u);
    EXPECT_EQ(std::move(opened).value()->NextUid(), 3);
  }
  auto compacted = serve::ReplayJournal(dir);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->replayed_records, 1);
  ASSERT_EQ(compacted->jobs.size(), 1u);
  EXPECT_EQ(compacted->jobs[0].uid, 2);
}

TEST(JournalTest, RunningJobReplaysAtSameAttemptRetryingAtNext) {
  const std::string dir = FreshJournalDir("attempts");
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<Journal> journal = std::move(opened).value();
    // uid 1 died mid-RUNNING attempt 2: its checkpoint carries the
    // progress, so the re-run is the SAME attempt.
    ASSERT_TRUE(journal->AppendRecord(AcceptedRecord(1, 20, "alice")).ok());
    JournalRecord running;
    running.uid = 1;
    running.state = JobState::kRunning;
    running.client_id = 20;
    running.tenant = "alice";
    running.attempt = 2;
    ASSERT_TRUE(journal->AppendRecord(running).ok());
    // uid 2 died between RETRYING attempt 1 and the next RUNNING: the
    // failed attempt is spent, so the re-run is attempt 2.
    ASSERT_TRUE(journal->AppendRecord(AcceptedRecord(2, 21, "bob")).ok());
    JournalRecord retrying;
    retrying.uid = 2;
    retrying.state = JobState::kRetrying;
    retrying.client_id = 21;
    retrying.tenant = "bob";
    retrying.attempt = 1;
    retrying.code = "NUMERIC_FAULT";
    ASSERT_TRUE(journal->AppendRecord(retrying).ok());
  }
  auto replayed = serve::ReplayJournal(dir);
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(replayed->jobs.size(), 2u);
  EXPECT_EQ(replayed->jobs[0].uid, 1);
  EXPECT_EQ(replayed->jobs[0].next_attempt, 2);
  EXPECT_EQ(replayed->jobs[1].uid, 2);
  EXPECT_EQ(replayed->jobs[1].next_attempt, 2);
}

TEST(JournalTest, TornTailAndCorruptRecordsAreSkippedLoudly) {
  const std::string dir = FreshJournalDir("torn");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const std::string good1 =
      serve::EncodeJournalRecord(AcceptedRecord(1, 30, "alice"));
  std::string corrupt =
      serve::EncodeJournalRecord(AcceptedRecord(2, 31, "bob"));
  corrupt[corrupt.find("bob")] = 'B';  // CRC now mismatches
  const std::string good2 =
      serve::EncodeJournalRecord(AcceptedRecord(3, 32, "carol"));
  const std::string torn = "{\"v\":1,\"seq\":4";  // died mid-append
  {
    std::ofstream out(dir + "/" + serve::kJournalFileName,
                      std::ios::binary);
    out << good1 << corrupt << good2 << torn;
  }

  auto replayed = serve::ReplayJournal(dir);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->replayed_records, 2);
  EXPECT_EQ(replayed->corrupt_records, 1);
  EXPECT_EQ(replayed->truncated_bytes,
            static_cast<int64_t>(torn.size()));
  ASSERT_EQ(replayed->jobs.size(), 2u);
  EXPECT_EQ(replayed->jobs[0].uid, 1);
  EXPECT_EQ(replayed->jobs[1].uid, 3);
  // Both skips are reported with path:line context.
  ASSERT_EQ(replayed->warnings.size(), 2u);
  EXPECT_NE(replayed->warnings[0].find(":2: "), std::string::npos)
      << replayed->warnings[0];
  EXPECT_NE(replayed->warnings[0].find("crc mismatch"), std::string::npos);
  EXPECT_NE(replayed->warnings[1].find("torn tail"), std::string::npos)
      << replayed->warnings[1];

  // Open() rewrites the file clean: the torn tail and the corrupt
  // record are gone, the two live jobs survive.
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(replay.jobs.size(), 2u);
  }
  auto clean = serve::ReplayJournal(dir);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->replayed_records, 2);
  EXPECT_EQ(clean->corrupt_records, 0);
  EXPECT_EQ(clean->truncated_bytes, 0);
}

// Server-level durability and retry behavior, driven through the real
// socket protocol like serve_test.
class JournalServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
    debug::DisarmAllFailpoints();
    obs::ResetMetrics();
  }

  std::string StartServer(serve::ServerOptions options) {
    server_ = std::make_unique<serve::Server>(std::move(options));
    EXPECT_TRUE(server_->Start().ok());
    return server_options_socket_;
  }

  // Starts a server with retry knobs tuned for tests: tiny backoff so
  // a retried job completes within the Call().
  std::string StartRetryServer(const std::string& tag, int max_attempts,
                               const std::string& journal_dir = "") {
    serve::ServerOptions options;
    options.socket_path = TempPath(tag + ".sock");
    options.max_queue = 8;
    options.max_attempts = max_attempts;
    options.retry_backoff_ms = 1.0;
    options.retry_backoff_max_ms = 4.0;
    options.journal_dir = journal_dir;
    server_options_socket_ = options.socket_path;
    return StartServer(std::move(options));
  }

  std::string server_options_socket_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(JournalServeTest, RecoversAcceptedJobFromJournalOnStartup) {
  const std::string dir = FreshJournalDir("recover");
  const std::string graph_path = MakeGraphFile("recover");
  const std::string out_path = TempPath("recover_out.txt");
  std::remove(out_path.c_str());

  // Hand-write the journal a crashed server would have left: one job
  // admitted (fsync'd ACCEPTED) and never finished.
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Journal> journal = std::move(opened).value();
    JournalRecord accepted = AcceptedRecord(journal->NextUid(), 77,
                                            "lazarus");
    Json request = AttackRequest(77, "lazarus", graph_path);
    request.object["out"] = Json::MakeString(out_path);
    accepted.request = std::move(request);
    ASSERT_TRUE(journal->AppendRecord(std::move(accepted)).ok());
  }

  const std::string socket = StartRetryServer("recover", 3, dir);
  EXPECT_EQ(server_->recovery().requeued_jobs, 1);
  EXPECT_EQ(server_->recovery().replayed_records, 1);

  // The recovered job has no client connection; completion shows up in
  // the tenant ledger and in the output file it was asked to write.
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  double completed = 0;
  for (int i = 0; i < 4000 && completed < 1; ++i) {
    auto stats = client.Call(MakeRequest(1, "auditor", "stats"));
    ASSERT_TRUE(stats.ok());
    const Json* result = stats->Find("result");
    ASSERT_NE(result, nullptr);
    if (completed < 1) {
      const Json* tenants = result->Find("tenants");
      const Json* lazarus =
          tenants != nullptr ? tenants->Find("lazarus") : nullptr;
      if (lazarus != nullptr) {
        completed = serve::GetNumber(*lazarus, "completed", 0);
      }
    }
    // The stats op also reports what startup recovered.
    const Json* recovery = result->Find("recovery");
    ASSERT_NE(recovery, nullptr) << stats->Dump();
    EXPECT_EQ(serve::GetNumber(*recovery, "requeued_jobs", -1), 1.0);
    if (completed < 1) ::usleep(5000);
  }
  EXPECT_EQ(completed, 1.0);
  EXPECT_TRUE(FileExists(out_path));

  // Drain, then replay the journal one more time: the recovered job
  // must have reached a terminal state — nothing left to re-run.
  server_->Shutdown();
  server_->Wait();
  server_.reset();
  auto replayed = serve::ReplayJournal(dir);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->jobs.size(), 0u);
  EXPECT_EQ(replayed->done, 1);
  std::remove(out_path.c_str());
}

// A journaled job whose op is missing or unknown is not guessed to be an
// attack: recovery fails it INVALID_INPUT, durably, instead of running it.
TEST_F(JournalServeTest, RecoveredJobWithoutKnownOpFailsInvalidInput) {
  const std::string dir = FreshJournalDir("bad_op");
  const std::string graph_path = MakeGraphFile("bad_op");
  {
    ReplayResult replay;
    auto opened = Journal::Open(dir, &replay);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Journal> journal = std::move(opened).value();
    JournalRecord missing = AcceptedRecord(journal->NextUid(), 1, "orphan");
    missing.request = AttackRequest(1, "orphan", graph_path);
    missing.request.object.erase("op");
    ASSERT_TRUE(journal->AppendRecord(std::move(missing)).ok());
    JournalRecord unknown = AcceptedRecord(journal->NextUid(), 2, "orphan");
    unknown.request = AttackRequest(2, "orphan", graph_path);
    unknown.request.object["op"] = Json::MakeString("explode");
    ASSERT_TRUE(journal->AppendRecord(std::move(unknown)).ok());
  }

  const std::string socket = StartRetryServer("bad_op", 3, dir);
  EXPECT_EQ(server_->recovery().requeued_jobs, 0);
  ASSERT_EQ(server_->recovery().warnings.size(), 2u);
  for (const std::string& warning : server_->recovery().warnings) {
    EXPECT_NE(warning.find("INVALID_INPUT"), std::string::npos) << warning;
  }
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  auto stats = client.Call(MakeRequest(3, "orphan", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* tenants = result->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  const Json* orphan = tenants->Find("orphan");
  ASSERT_NE(orphan, nullptr) << stats->Dump();
  EXPECT_EQ(serve::GetNumber(*orphan, "failed", -1), 2.0);
  EXPECT_EQ(serve::GetNumber(*orphan, "completed", -1), 0.0);

  server_->Shutdown();
  server_->Wait();
  server_.reset();
  auto replayed = serve::ReplayJournal(dir);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->jobs.size(), 0u);
  EXPECT_EQ(replayed->failed, 2);
}

TEST_F(JournalServeTest, TransientFailureRetriesAndSucceeds) {
  const std::string socket = StartRetryServer("retry_ok", 3);
  const std::string graph_path = MakeGraphFile("retry_ok");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // First execution fails NUMERIC_FAULT (transient); the retry runs
  // clean. The client sees one response: success on attempt 2.
  debug::ArmFailpoint("serve.execute", "1");
  auto response = client.Call(AttackRequest(5, "erin", graph_path));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "OK") << response->Dump();
  EXPECT_EQ(serve::GetNumber(*response, "attempts", -1), 2.0);

  auto stats = client.Call(MakeRequest(6, "erin", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* retry = result->Find("retry");
  ASSERT_NE(retry, nullptr) << stats->Dump();
  EXPECT_EQ(serve::GetNumber(*retry, "attempts", -1), 1.0);
  EXPECT_EQ(serve::GetNumber(*retry, "succeeded", -1), 1.0);
  EXPECT_EQ(serve::GetNumber(*retry, "exhausted", -1), 0.0);
  // One admission, one completion — retries never double-count.
  const Json* tenants = result->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  const Json* erin = tenants->Find("erin");
  ASSERT_NE(erin, nullptr);
  EXPECT_EQ(serve::GetNumber(*erin, "accepted", -1), 1.0);
  EXPECT_EQ(serve::GetNumber(*erin, "completed", -1), 1.0);
  // Queue wait and run time are observed once per attempt.
  EXPECT_EQ(serve::GetNumber(*erin, "queue_ms_count", -1), 2.0);
  EXPECT_EQ(serve::GetNumber(*erin, "run_ms_count", -1), 2.0);
  EXPECT_EQ(serve::GetNumber(*result, "queue_depth", -1), 0.0);
}

TEST_F(JournalServeTest, RetryBudgetExhaustsWithTransientCode) {
  const std::string socket = StartRetryServer("retry_exhaust", 2);
  const std::string graph_path = MakeGraphFile("retry_exhaust");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  debug::ArmFailpoint("serve.execute", "after:0");  // every attempt fails
  auto response = client.Call(AttackRequest(5, "frank", graph_path));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "NUMERIC_FAULT") << response->Dump();
  EXPECT_EQ(serve::GetNumber(*response, "attempts", -1), 2.0);
  debug::DisarmAllFailpoints();

  auto stats = client.Call(MakeRequest(6, "frank", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* retry = result->Find("retry");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(serve::GetNumber(*retry, "attempts", -1), 1.0);
  EXPECT_EQ(serve::GetNumber(*retry, "exhausted", -1), 1.0);
}

TEST_F(JournalServeTest, PermanentFailureIsNeverRetried) {
  const std::string socket = StartRetryServer("permanent", 3);
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // A PEEGA option the campaign itself rejects (layers = 0): it passes
  // admission, then fails INVALID_INPUT, a permanent code — exactly one
  // attempt regardless of the budget.
  Json request = AttackRequest(5, "grace", MakeGraphFile("permanent"));
  request.object["layers"] = Json::MakeNumber(0);
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "INVALID_INPUT") << response->Dump();
  EXPECT_EQ(serve::GetNumber(*response, "attempts", -1), 1.0);

  auto stats = client.Call(MakeRequest(6, "grace", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* retry = result->Find("retry");
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(serve::GetNumber(*retry, "attempts", -1), 0.0);
}

TEST_F(JournalServeTest, JournalAppendFailureRefusesAdmission) {
  const std::string dir = FreshJournalDir("append_fail");
  const std::string socket = StartRetryServer("append_fail", 3, dir);
  const std::string graph_path = MakeGraphFile("append_fail");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // If the ACCEPTED record cannot be fsync'd, the durability promise
  // cannot be kept: the job is refused, not silently accepted.
  debug::ArmFailpoint("serve.journal.append", "1");
  auto rejected = client.Call(AttackRequest(5, "heidi", graph_path));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(Code(*rejected), "IO_ERROR") << rejected->Dump();
  debug::DisarmAllFailpoints();

  // The journal never heard of the job; a resubmission is admitted.
  auto accepted = client.Call(AttackRequest(6, "heidi", graph_path));
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(Code(*accepted), "OK") << accepted->Dump();
}

TEST_F(JournalServeTest, ParseFailpointSurfacesAsInvalidInput) {
  const std::string socket = StartRetryServer("fp_parse", 3);
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  debug::ArmFailpoint("serve.parse", "1");
  auto response = client.Call(MakeRequest(1, "ivan", "ping"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "INVALID_INPUT") << response->Dump();
  debug::DisarmAllFailpoints();
  auto healthy = client.Call(MakeRequest(2, "ivan", "ping"));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(Code(*healthy), "OK");
}

TEST_F(JournalServeTest, RespondFailpointClosesConnectionNotServer) {
  const std::string socket = StartRetryServer("fp_respond", 3);
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  debug::ArmFailpoint("serve.respond", "1");
  // The response is dropped and the connection closed; the server
  // itself survives and serves the next connection.
  auto dropped = client.Call(MakeRequest(1, "judy", "ping"));
  EXPECT_FALSE(dropped.ok());
  debug::DisarmAllFailpoints();
  serve::Client fresh;
  ASSERT_TRUE(fresh.Connect(socket).ok());
  auto healthy = fresh.Call(MakeRequest(2, "judy", "ping"));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(Code(*healthy), "OK");
}

TEST_F(JournalServeTest, AcceptFailpointDropsConnectionNotServer) {
  const std::string socket = StartRetryServer("fp_accept", 3);
  debug::ArmFailpoint("serve.accept", "1");
  serve::Client doomed;
  // connect(2) may succeed via the backlog before the server closes the
  // socket; either the connect or the first call must fail.
  const status::Status connected = doomed.Connect(socket);
  if (connected.ok()) {
    EXPECT_FALSE(doomed.Call(MakeRequest(1, "kate", "ping")).ok());
  }
  debug::DisarmAllFailpoints();
  serve::Client fresh;
  ASSERT_TRUE(fresh.Connect(socket).ok());
  auto healthy = fresh.Call(MakeRequest(2, "kate", "ping"));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(Code(*healthy), "OK");
}

// End-to-end crash drill against the real binary: SIGKILL `graphguard
// serve` mid-campaign, restart it on the same journal, and demand the
// recovered run write a poisoned graph bitwise identical to an
// uninterrupted run's. checkpoint_every=1 keeps the kill window wide
// (every flip persists campaign state) and makes recovery resume from
// the last committed flip rather than recompute from scratch.
class CrashRecoveryTest : public ::testing::Test {
 protected:
  static pid_t SpawnServe(const std::string& socket,
                          const std::string& journal) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, 1);
        ::dup2(devnull, 2);
        ::close(devnull);
      }
      ::execl(PEEGA_GRAPHGUARD_BIN, "graphguard", "serve", "--socket",
              socket.c_str(), "--journal", journal.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    return pid;
  }

  static bool WaitConnectable(const std::string& socket,
                              serve::Client* client) {
    for (int i = 0; i < 2000; ++i) {
      if (client->Connect(socket).ok()) return true;
      ::usleep(5000);
    }
    return false;
  }

  // A campaign long enough (~80 flips, a few hundred ms with per-flip
  // checkpointing) that the SIGKILL reliably lands mid-run: the first
  // checkpoint commits within milliseconds of the first flip, long
  // before the campaign finishes.
  static std::string MakeCrashGraphFile() {
    linalg::Rng rng(20240502);
    const graph::Graph g = graph::MakeCoraLike(&rng, 0.4);
    const std::string path = TempPath("crash_graph.txt");
    EXPECT_TRUE(graph::SaveGraph(g, path).ok());
    return path;
  }

  static Json CampaignRequest(const std::string& graph_path,
                              const std::string& out_path) {
    Json request = MakeRequest(1, "phoenix", "attack");
    request.object["graph"] = Json::MakeString(graph_path);
    request.object["rate"] = Json::MakeNumber(0.2);
    request.object["seed"] = Json::MakeNumber(11);
    request.object["out"] = Json::MakeString(out_path);
    request.object["checkpoint_every"] = Json::MakeNumber(1);
    return request;
  }

  static void ShutdownAndReap(serve::Client* client, pid_t pid) {
    auto draining = client->Call(MakeRequest(99, "phoenix", "shutdown"));
    EXPECT_TRUE(draining.ok());
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  }
};

TEST_F(CrashRecoveryTest, SigkilledServerRecoversBitwiseIdenticalRun) {
  const std::string graph_path = MakeCrashGraphFile();
  const std::string out_baseline = TempPath("crash_baseline.txt");
  const std::string out_recovered = TempPath("crash_recovered.txt");
  std::remove(out_baseline.c_str());
  std::remove(out_recovered.c_str());

  // Uninterrupted reference run.
  {
    const std::string socket = TempPath("crash_baseline.sock");
    const std::string journal = FreshJournalDir("crash_baseline");
    const pid_t pid = SpawnServe(socket, journal);
    ASSERT_GT(pid, 0);
    serve::Client client;
    ASSERT_TRUE(WaitConnectable(socket, &client));
    auto response =
        client.Call(CampaignRequest(graph_path, out_baseline));
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(Code(*response), "OK") << response->Dump();
    ShutdownAndReap(&client, pid);
  }
  ASSERT_TRUE(FileExists(out_baseline));

  // Crash run: kill -9 as soon as the first checkpoint is committed
  // (the server assigns <journal>/ckpt-1.json to the first job).
  const std::string socket = TempPath("crash.sock");
  const std::string journal = FreshJournalDir("crash");
  bool finished_before_kill = false;
  {
    const pid_t pid = SpawnServe(socket, journal);
    ASSERT_GT(pid, 0);
    serve::Client client;
    ASSERT_TRUE(WaitConnectable(socket, &client));
    ASSERT_TRUE(
        client.Send(CampaignRequest(graph_path, out_recovered)).ok());
    const std::string ckpt = Journal::CheckpointPath(journal, 1);
    for (int i = 0; i < 4000; ++i) {
      if (FileExists(ckpt) || FileExists(out_recovered)) break;
      ::usleep(2000);
    }
    finished_before_kill = FileExists(out_recovered);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  }

  // Restart on the same journal: the job is replayed, resumed from the
  // checkpoint, and finishes without any client attached.
  {
    const pid_t pid = SpawnServe(socket, journal);
    ASSERT_GT(pid, 0);
    serve::Client client;
    ASSERT_TRUE(WaitConnectable(socket, &client));
    double completed = 0;
    for (int i = 0; i < 12000 && completed < 1; ++i) {
      auto stats = client.Call(MakeRequest(2, "auditor", "stats"));
      ASSERT_TRUE(stats.ok());
      const Json* result = stats->Find("result");
      ASSERT_NE(result, nullptr);
      if (!finished_before_kill) {
        const Json* recovery = result->Find("recovery");
        ASSERT_NE(recovery, nullptr) << stats->Dump();
        EXPECT_EQ(serve::GetNumber(*recovery, "requeued_jobs", -1), 1.0);
      }
      const Json* tenants = result->Find("tenants");
      const Json* phoenix =
          tenants != nullptr ? tenants->Find("phoenix") : nullptr;
      if (phoenix != nullptr) {
        completed = serve::GetNumber(*phoenix, "completed", 0);
      }
      if (finished_before_kill) break;  // nothing left to recover
      if (completed < 1) ::usleep(5000);
    }
    if (!finished_before_kill) {
      EXPECT_EQ(completed, 1.0);
    }
    ShutdownAndReap(&client, pid);
  }

  // The durability payoff: crash + recovery is invisible in the output.
  ASSERT_TRUE(FileExists(out_recovered));
  const std::string baseline = ReadFile(out_baseline);
  const std::string recovered = ReadFile(out_recovered);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, recovered);

  // Terminal state reached the journal before the drain finished.
  auto replayed = serve::ReplayJournal(journal);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->jobs.size(), 0u);
  std::remove(out_baseline.c_str());
  std::remove(out_recovered.c_str());
}

}  // namespace
}  // namespace repro
