// The job server's four load-bearing behaviors, each pinned
// deterministically (the pause/resume operational gate exists so these
// tests can fill or stall the queue without sleeping):
//   - admission control: a full queue rejects with RESOURCE_EXHAUSTED,
//     never blocks the submitter;
//   - deadlines: a job whose budget expires while queued comes back as
//     DEADLINE_EXCEEDED — an error response, not a hang;
//   - determinism: concurrent clients submitting the same campaign get
//     bitwise-identical flip sequences (FIFO scheduling + the full
//     deterministic thread pool per job);
//   - drain: shutdown finishes queued work, rejects new work with
//     UNAVAILABLE, and Wait() returns.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/random.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "op_rejections.h"
#include "parallel/worker_thread.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "status/status.h"

namespace repro {
namespace {

using obs::Json;

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/serve_test_" + tag;
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
  request.object["return_flips"] = Json::MakeBool(true);
  return request;
}

std::string Code(const Json& response) {
  return serve::GetString(response, "code", "<missing>");
}

// Calls with a request written as JSON text; a null Json on failure.
Json CallText(serve::Client* client, const std::string& text) {
  Json request;
  std::string error;
  EXPECT_TRUE(Json::Parse(text, &request, &error)) << error << ": " << text;
  auto response = client->Call(request);
  EXPECT_TRUE(response.ok()) << text;
  return response.ok() ? *response : Json();
}

// The "tenants" entry of a stats response for `tenant` (null if none).
Json TenantStats(serve::Client* client, const std::string& tenant) {
  auto stats = client->Call(MakeRequest(999, tenant, "stats"));
  const Json* result = stats.ok() ? stats->Find("result") : nullptr;
  const Json* tenants = result != nullptr ? result->Find("tenants") : nullptr;
  const Json* entry = tenants != nullptr ? tenants->Find(tenant) : nullptr;
  return entry != nullptr ? *entry : Json();
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_->Wait();
    }
    obs::ResetMetrics();
  }

  // Starts a fresh server; returns its socket path.
  std::string StartServer(const std::string& tag, int max_queue,
                          const std::string& journal_dir = "") {
    serve::ServerOptions options;
    options.socket_path = TempPath(tag + ".sock");
    options.max_queue = max_queue;
    options.journal_dir = journal_dir;
    server_ = std::make_unique<serve::Server>(options);
    EXPECT_TRUE(server_->Start().ok());
    return options.socket_path;
  }

  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeTest, FullQueueRejectsWithResourceExhausted) {
  const std::string socket = StartServer("admission", 2);
  const std::string graph_path = MakeGraphFile("admission");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // Stall the scheduler so admitted jobs stay queued.
  auto paused = client.Call(MakeRequest(1, "alice", "pause"));
  ASSERT_TRUE(paused.ok());
  EXPECT_EQ(Code(*paused), "OK");

  // Fill the queue to max_queue, pipelining (responses come later).
  ASSERT_TRUE(client.Send(AttackRequest(2, "alice", graph_path)).ok());
  ASSERT_TRUE(client.Send(AttackRequest(3, "alice", graph_path)).ok());

  // The next submission must bounce immediately — admission control
  // responds from the IO thread; it never waits for queue space.
  ASSERT_TRUE(client.Send(AttackRequest(4, "alice", graph_path)).ok());
  auto rejected = client.ReadResponse();
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(Code(*rejected), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(serve::GetNumber(*rejected, "id", -1), 4.0);

  // Resume: both queued jobs complete, in submission order.
  ASSERT_TRUE(client.Call(MakeRequest(5, "alice", "resume")).ok());
  for (const double expected_id : {2.0, 3.0}) {
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(Code(*response), "OK") << response->Dump();
    EXPECT_EQ(serve::GetNumber(*response, "id", -1), expected_id);
  }

  // The tenant's ledger saw all of it.
  auto stats = client.Call(MakeRequest(6, "alice", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* tenants = result->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  const Json* alice = tenants->Find("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(serve::GetNumber(*alice, "accepted", -1), 2.0);
  EXPECT_EQ(serve::GetNumber(*alice, "rejected", -1), 1.0);
  EXPECT_EQ(serve::GetNumber(*alice, "completed", -1), 2.0);
}

TEST_F(ServeTest, QueueExpiredDeadlineReturnsErrorNotHang) {
  const std::string socket = StartServer("deadline", 8);
  const std::string graph_path = MakeGraphFile("deadline");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // Hold the job in the queue past its (sub-microsecond) budget; the
  // deadline is armed at admission, so queue wait spends it.
  ASSERT_TRUE(client.Call(MakeRequest(1, "bob", "pause")).ok());
  Json doomed = AttackRequest(2, "bob", graph_path);
  doomed.object["deadline_ms"] = Json::MakeNumber(1e-6);
  ASSERT_TRUE(client.Send(doomed).ok());
  ASSERT_TRUE(client.Call(MakeRequest(3, "bob", "resume")).ok());

  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "DEADLINE_EXCEEDED") << response->Dump();

  // The same job with no budget completes fine afterwards.
  auto healthy = client.Call(AttackRequest(4, "bob", graph_path));
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(Code(*healthy), "OK") << healthy->Dump();
}

TEST_F(ServeTest, CancelRemovesQueuedJob) {
  const std::string socket = StartServer("cancel", 8);
  const std::string graph_path = MakeGraphFile("cancel");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  ASSERT_TRUE(client.Call(MakeRequest(1, "carol", "pause")).ok());
  ASSERT_TRUE(client.Send(AttackRequest(7, "carol", graph_path)).ok());
  // Cancel by (tenant, id); a different tenant naming the same id must
  // NOT be able to kill it.
  Json foreign_cancel = MakeRequest(2, "mallory", "cancel");
  foreign_cancel.object["target_id"] = Json::MakeNumber(7);
  auto foreign = client.Call(foreign_cancel);
  ASSERT_TRUE(foreign.ok());
  const Json* foreign_result = foreign->Find("result");
  ASSERT_NE(foreign_result, nullptr);
  EXPECT_FALSE(serve::GetBool(*foreign_result, "found", true))
      << foreign->Dump();

  Json cancel = MakeRequest(3, "carol", "cancel");
  cancel.object["target_id"] = Json::MakeNumber(7);
  auto cancelled = client.Call(cancel);
  ASSERT_TRUE(cancelled.ok());
  const Json* cancel_result = cancelled->Find("result");
  ASSERT_NE(cancel_result, nullptr);
  EXPECT_TRUE(serve::GetBool(*cancel_result, "found", false))
      << cancelled->Dump();

  ASSERT_TRUE(client.Call(MakeRequest(4, "carol", "resume")).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Code(*response), "CANCELLED") << response->Dump();
}

TEST_F(ServeTest, ConcurrentClientsGetIdenticalFlipSequences) {
  constexpr int kClients = 8;
  const std::string socket = StartServer("concurrent", 2 * kClients);
  const std::string graph_path = MakeGraphFile("concurrent");

  std::vector<std::string> flips(kClients);
  std::vector<std::string> codes(kClients);
  {
    std::vector<std::unique_ptr<parallel::WorkerThread>> workers;
    workers.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      workers.push_back(std::make_unique<parallel::WorkerThread>([&, c] {
        serve::Client client;
        if (!client.Connect(socket).ok()) return;
        const std::string tenant = "tenant" + std::to_string(c);
        auto response =
            client.Call(AttackRequest(100 + c, tenant, graph_path));
        if (!response.ok()) return;
        codes[static_cast<size_t>(c)] = Code(*response);
        const Json* result = response->Find("result");
        const Json* flip_list =
            result != nullptr ? result->Find("flips") : nullptr;
        if (flip_list != nullptr) {
          flips[static_cast<size_t>(c)] = flip_list->Dump();
        }
      }));
    }
    for (auto& worker : workers) worker->Join();
  }

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(codes[static_cast<size_t>(c)], "OK") << "client " << c;
    EXPECT_FALSE(flips[static_cast<size_t>(c)].empty()) << "client " << c;
    EXPECT_EQ(flips[static_cast<size_t>(c)], flips[0]) << "client " << c;
  }

  // Every tenant shows exactly one accepted == completed job.
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  auto stats = client.Call(MakeRequest(1, "auditor", "stats"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  const Json* tenants = result->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  for (int c = 0; c < kClients; ++c) {
    const Json* tenant = tenants->Find("tenant" + std::to_string(c));
    ASSERT_NE(tenant, nullptr) << "tenant" << c;
    EXPECT_EQ(serve::GetNumber(*tenant, "accepted", -1), 1.0);
    EXPECT_EQ(serve::GetNumber(*tenant, "completed", -1), 1.0);
    EXPECT_EQ(serve::GetNumber(*tenant, "rejected", -1), 0.0);
  }
}

TEST_F(ServeTest, GracefulDrainFinishesQueuedWorkAndRejectsNew) {
  const std::string socket = StartServer("drain", 8);
  const std::string graph_path = MakeGraphFile("drain");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  // Queue one job behind a pause, then drain: drain overrides pause, so
  // the queued job must still complete.
  ASSERT_TRUE(client.Call(MakeRequest(1, "dave", "pause")).ok());
  ASSERT_TRUE(client.Send(AttackRequest(2, "dave", graph_path)).ok());
  auto draining = client.Call(MakeRequest(3, "dave", "shutdown"));
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(Code(*draining), "OK");

  // New work during the drain is turned away. Depending on how fast the
  // drain finishes, the rejection is an UNAVAILABLE response, a closed
  // connection, or a failed send — all correct; a hang is the bug.
  bool saw_job_ok = false;
  bool saw_rejection = !client.Send(AttackRequest(4, "dave", graph_path)).ok();

  // The two responses can arrive in either order: the id-4 rejection is
  // written by the IO thread at admission while job 2 is still running.
  while (!saw_job_ok || !saw_rejection) {
    auto response = client.ReadResponse();
    if (!response.ok()) {
      // The server closes only after flushing queued responses, so a
      // closed connection here means the drain finished before the new
      // submission was read — itself a valid rejection.
      if (saw_job_ok) saw_rejection = true;
      break;
    }
    const double id = serve::GetNumber(*response, "id", -1);
    if (id == 2.0) {
      EXPECT_EQ(Code(*response), "OK") << response->Dump();
      saw_job_ok = true;
    } else if (id == 4.0) {
      EXPECT_EQ(Code(*response), "UNAVAILABLE") << response->Dump();
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_job_ok);
  EXPECT_TRUE(saw_rejection);

  // The contract that matters: Wait() returns — no hang on drain.
  server_->Wait();
  server_.reset();
}

// The shared rejection table through the job server: every row JSON can
// carry is INVALID_INPUT naming the field at admission, so nothing is
// queued or journaled and each counts as the tenant's rejected.
TEST_F(ServeTest, RejectionTableIsRefusedAtAdmission) {
  const std::string dir = TempPath("rejections.journal");
  std::remove((dir + "/" + serve::kJournalFileName).c_str());
  const std::string socket = StartServer("rejections", 8, dir);
  const std::string graph_path = MakeGraphFile("rejections");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());

  int sent = 0;
  for (const RejectionRow& row : RejectionTable()) {
    if (row.json == nullptr) continue;
    const std::string field = row.field;
    const std::string text =
        "{\"id\":" + std::to_string(++sent) +
        ",\"tenant\":\"strict\",\"op\":\"" + row.op + "\",\"graph\":\"" +
        graph_path + "\",\"" + field + "\":" + row.json + "}";
    const Json response = CallText(&client, text);
    EXPECT_EQ(Code(response), "INVALID_INPUT") << text;
    EXPECT_NE(serve::GetString(response, "error", "")
                  .find("\"" + field + "\""),
              std::string::npos)
        << response.Dump();
  }
  // JSON cannot carry NaN; the reader refuses it all the same.
  serve::Request request;
  ASSERT_TRUE(serve::ParseRequest(
                  "{\"op\":\"attack\",\"graph\":\"" + graph_path + "\"}",
                  &request)
                  .ok());
  request.raw.object["rate"] =
      Json::MakeNumber(std::numeric_limits<double>::quiet_NaN());
  serve::JobRequest job;
  const status::Status nan_rate = serve::ParseJob(request, &job);
  EXPECT_EQ(nan_rate.code(), status::Code::kInvalidInput);
  EXPECT_NE(nan_rate.message().find("\"rate\""), std::string::npos)
      << nan_rate.ToString();

  const Json strict = TenantStats(&client, "strict");
  EXPECT_EQ(serve::GetNumber(strict, "rejected", -1), sent);
  EXPECT_EQ(serve::GetNumber(strict, "accepted", -1), 0.0);
  EXPECT_EQ(serve::GetNumber(strict, "failed", -1), 0.0);
  server_->Shutdown();
  server_->Wait();
  server_.reset();
  auto replayed = serve::ReplayJournal(dir);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->replayed_records, 0);
}

// Envelope fields no longer fall back silently: each bad value is
// INVALID_INPUT naming the field, and a refused job is the tenant's
// rejected, never accepted or failed.
TEST_F(ServeTest, EnvelopeFieldsAreStrict) {
  const std::string socket = StartServer("envelope", 8);
  const std::string graph_path = MakeGraphFile("envelope");
  serve::Client client;
  ASSERT_TRUE(client.Connect(socket).ok());
  const std::string job =
      "\"tenant\":\"env\",\"op\":\"attack\",\"graph\":\"" + graph_path + "\"";
  struct Row {
    std::string field;
    std::string text;
    bool is_job;  // counted as the tenant's rejected
  };
  const std::vector<Row> rows = {
      {"id", "{\"id\":\"7\",\"op\":\"ping\"}", false},
      {"id", "{\"id\":1.5,\"op\":\"ping\"}", false},
      {"tenant", "{\"tenant\":5,\"op\":\"ping\"}", false},
      {"graph", "{\"tenant\":\"env\",\"op\":\"attack\"}", true},
      {"out", "{" + job + ",\"out\":5}", true},
      {"return_flips", "{" + job + ",\"return_flips\":\"yes\"}", true},
      {"deadline_ms", "{" + job + ",\"deadline_ms\":0}", true},
      {"deadline_ms", "{" + job + ",\"deadline_ms\":\"abc\"}", true},
      {"out",
       "{\"tenant\":\"env\",\"op\":\"eval\",\"graph\":\"" + graph_path +
           "\",\"out\":\"x.txt\"}",
       true},
      {"target_id", "{\"tenant\":\"env\",\"op\":\"cancel\"}", false},
      {"target_id",
       "{\"tenant\":\"env\",\"op\":\"cancel\",\"target_id\":\"7\"}", false},
  };
  int jobs = 0;
  for (const Row& row : rows) {
    const Json response = CallText(&client, row.text);
    EXPECT_EQ(Code(response), "INVALID_INPUT") << row.text;
    EXPECT_NE(serve::GetString(response, "error", "")
                  .find("\"" + row.field + "\""),
              std::string::npos)
        << row.text << " -> " << response.Dump();
    if (row.is_job) ++jobs;
  }
  const Json env = TenantStats(&client, "env");
  EXPECT_EQ(serve::GetNumber(env, "rejected", -1), jobs);
  EXPECT_EQ(serve::GetNumber(env, "accepted", -1), 0.0);
  EXPECT_EQ(serve::GetNumber(env, "failed", -1), 0.0);
}

// A request line nested past the JSON parser's depth limit is refused
// like any malformed line, and the server keeps answering: a long run
// of '[' must not exhaust the stack.
TEST_F(ServeTest, DeeplyNestedLineIsInvalidInputAndServerStaysUp) {
  const std::string socket_path = StartServer("deep", 8);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string line = std::string(100000, '[') + "\n";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "server closed the connection";
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  Json response;
  std::string error;
  ASSERT_TRUE(Json::Parse(reply, &response, &error)) << error;
  EXPECT_EQ(Code(response), "INVALID_INPUT") << reply;
  EXPECT_NE(serve::GetString(response, "error", "").find("nesting deeper"),
            std::string::npos)
      << reply;

  serve::Client client;
  ASSERT_TRUE(client.Connect(socket_path).ok());
  const Json pong = CallText(&client, R"({"id":2,"op":"ping"})");
  EXPECT_EQ(Code(pong), "OK") << pong.Dump();
}

}  // namespace
}  // namespace repro
