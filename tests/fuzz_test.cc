// Seeded mutational fuzzing of every reader that takes bytes from
// outside the process:
//   - op fields: serve::ParseRequest and serve::ParseJob (which runs
//     eval::ReadJson) over request lines, and eval::ReadFlags over
//     command lines; the corpora are the request shapes serve_load and
//     journal_test send and the CLI invocations of the CI smokes.
//     Invariant: accepted with a spec that validates, or INVALID_INPUT.
//   - files: obs::Json::Parse, obs::Unseal, serve::DecodeJournalRecord,
//     serve::ReplayJournal, checkpoint resume, graph::LoadGraph and
//     gg_load_model; the corpora are made in-test by the writers (one
//     journal record per JobState, the checkpoint of an interrupted tiny
//     campaign, SaveGraph of a small graph, gg_save_model of a tiny
//     model). Invariant: OK, INVALID_INPUT or IO_ERROR.
//   - caller buffers: gg_set_graph_csr over mutated CSR arrays.
//     Invariant: OK with a binary graph, or INVALID_INPUT.
// No reader may crash or report INTERNAL (the asan-ubsan preset runs
// this test too). The seed and the iteration budgets are fixed, so a
// failure reproduces exactly.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <gtest/gtest.h>

#include "capi/graphguard.h"
#include "core/peega.h"
#include "debug/failpoints.h"
#include "eval/args.h"
#include "eval/op_schema.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/random.h"
#include "obs/json.h"
#include "obs/record.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "status/status.h"

namespace repro {
namespace {

constexpr uint64_t kSeed = 20261017;
constexpr int kIterations = 20000;

// Fragments that steer mutations toward the readers' edge cases.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> tokens = {
      "\"", ":", ",", "{", "}", "[", "]", "null", "true", "false", "-1",
      "0", "1.5", "2x", "1e308", "-1e308", "1e999", "9007199254740993",
      "NaN", "nan", "inf", "0x10", " 1", "\"2\"", "\"xyz\"", "\"rate\"",
      "\"seed\"", "\"op\"", "\"id\"", "\"tenant\"", "\"attack\"",
      "\"eval\"", "\"graph\"", "\"runs\"", "\\u0000", "\\", "--rate",
      "--seed", "--runs", "--mode", "--rat", "--", "=", "--rate=", "abc"};
  return tokens;
}

const std::string& Pick(const std::vector<std::string>& items,
                        linalg::Rng* rng) {
  return items[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(items.size()) - 1))];
}

size_t Position(const std::string& s, linalg::Rng* rng) {
  return static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(s.size())));
}

// One to four byte-level edits: overwrite, insert a dictionary token,
// delete or duplicate a range, or splice with another corpus entry.
std::string Mutate(std::string s, const std::vector<std::string>& corpus,
                   linalg::Rng* rng) {
  const int edits = static_cast<int>(rng->UniformInt(1, 4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = Position(s, rng);
    const size_t len = static_cast<size_t>(rng->UniformInt(0, 8));
    switch (rng->UniformInt(0, 4)) {
      case 0:
        if (at < s.size()) {
          s[at] = static_cast<char>(rng->UniformInt(0, 255));
        }
        break;
      case 1:
        s.insert(at, Pick(Dictionary(), rng));
        break;
      case 2:
        s.erase(at, len);
        break;
      case 3:
        s.insert(at, s.substr(at, len));
        break;
      default: {
        const std::string& other = Pick(corpus, rng);
        s = s.substr(0, at) + other.substr(std::min(at, other.size()));
        break;
      }
    }
  }
  return s;
}

void ExpectAcceptedOrInvalidInput(const status::Status& status,
                                  const std::string& input) {
  if (!status.ok()) {
    ASSERT_EQ(status.code(), status::Code::kInvalidInput)
        << status.ToString() << "\ninput: " << input;
  }
}

// The file readers' invariant.
void ExpectOkInvalidInputOrIoError(const status::Status& status,
                                   const std::string& input) {
  ASSERT_TRUE(status.ok() || status.code() == status::Code::kInvalidInput ||
              status.code() == status::Code::kIoError)
      << status.ToString() << "\ninput: " << input;
}

// Half the time, seals a mutated record again, so that it passes the
// CRC and reaches the field reads behind it.
std::string MaybeReseal(const std::string& text, linalg::Rng* rng) {
  obs::Json doc;
  std::string error;
  if (rng->UniformInt(0, 1) == 0 || !obs::Json::Parse(text, &doc, &error) ||
      doc.type != obs::Json::Type::kObject) {
    return text;
  }
  doc.object.erase("crc");
  return obs::Seal(std::move(doc));
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/fuzz_test_" + tag;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// One encoded record per JobState, newline included.
std::vector<std::string> JournalCorpus() {
  std::vector<std::string> lines;
  int64_t seq = 0;
  for (const serve::JobState state :
       {serve::JobState::kAccepted, serve::JobState::kRunning,
        serve::JobState::kRetrying, serve::JobState::kDone,
        serve::JobState::kFailed, serve::JobState::kCancelled}) {
    serve::JournalRecord record;
    record.seq = ++seq;
    record.uid = 1 + seq / 3;
    record.state = state;
    record.client_id = 40 + seq;
    record.tenant = "alice";
    record.attempt = state == serve::JobState::kAccepted ? 0 : 1;
    record.remaining_ms = seq % 2 == 0 ? -1.0 : 1234.5;
    if (state == serve::JobState::kRetrying ||
        state == serve::JobState::kFailed) {
      record.code = "NUMERIC_FAULT";
    }
    if (state == serve::JobState::kAccepted) {
      std::string error;
      EXPECT_TRUE(obs::Json::Parse(
          R"({"id":41,"tenant":"alice","op":"attack","graph":"/tmp/g.txt","rate":0.05,"seed":11})",
          &record.request, &error));
    }
    lines.push_back(serve::EncodeJournalRecord(record));
  }
  return lines;
}

TEST(FuzzTest, ServeRequestsParseOrFailInvalidInput) {
  const std::vector<std::string> corpus = {
      R"({"id":1,"tenant":"t0","op":"attack","graph":"/tmp/g.txt","attacker":"peega","rate":0.05,"seed":11})",
      R"({"id":2,"tenant":"t1","op":"eval","graph":"/tmp/g.txt","defender":"gcn","runs":1,"seed":11})",
      R"({"id":3,"tenant":"t2","op":"attack","graph":"/tmp/g.txt","rate":0.05,"seed":11,"deadline_ms":0.000001})",
      R"({"id":1,"tenant":"phoenix","op":"attack","graph":"/tmp/g.txt","rate":0.2,"seed":11,"out":"/tmp/o.txt","checkpoint_every":1})",
      R"({"id":5,"tenant":"erin","op":"attack","graph":"/tmp/g.txt","rate":0.05,"seed":11,"return_flips":true})",
      R"({"id":9,"op":"attack","graph":"g","attacker":"peega-batch","batch":4,"mode":"tm","lambda":0.5,"p":1,"layers":3,"feature_cost":2,"checkpoint":"/tmp/c.json"})",
      R"({"id":6,"tenant":"alice","op":"stats"})",
      R"({"id":7,"tenant":"carol","op":"cancel","target_id":7})",
      R"({"id":99,"tenant":"phoenix","op":"shutdown"})",
      R"({"op":"ping"})",
  };
  linalg::Rng rng(kSeed);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string line = Mutate(Pick(corpus, &rng), corpus, &rng);
    serve::Request request;
    status::Status status = serve::ParseRequest(line, &request);
    if (status.ok() && request.op == "cancel") {
      status = serve::CancelTarget(request).status();
    } else if (status.ok()) {
      serve::JobRequest job;
      status = serve::ParseJob(request, &job);
      if (status.ok()) {
        const status::Status valid = request.op == "attack"
                                         ? eval::Validate(job.attack)
                                         : eval::Validate(job.eval);
        ASSERT_TRUE(valid.ok()) << valid.ToString() << "\ninput: " << line;
      }
    }
    ExpectAcceptedOrInvalidInput(status, line);
    ++(status.ok() ? accepted : refused);
  }
  // The budget reaches both sides of the readers.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, CommandLinesParseOrFailInvalidInput) {
  const std::vector<std::vector<std::string>> corpus = {
      {"attack", "--in", "g.txt", "--out", "p.txt", "--attacker", "peega",
       "--rate", "0.05", "--seed", "7"},
      {"attack", "--in", "g.txt", "--out", "p.txt", "--rate", "0.05",
       "--seed", "7", "--checkpoint", "/tmp/ck.json", "--checkpoint-every",
       "1"},
      {"attack", "--in=g", "--out=p", "--mode=fp", "--feature-cost", "2",
       "--lambda", "0.01", "--p", "2", "--layers", "2", "--batch", "16",
       "--deadline", "5"},
      {"defend", "--in", "p.txt", "--defender", "gnat", "--runs", "1",
       "--seed", "3"},
  };
  std::vector<std::string> flat;  // splice material for Mutate
  for (const auto& argv : corpus) {
    flat.insert(flat.end(), argv.begin(), argv.end());
  }
  linalg::Rng rng(kSeed);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::vector<std::string> argv = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    const int edits = static_cast<int>(rng.UniformInt(1, 3));
    for (int e = 0; e < edits; ++e) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(argv.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:
          argv[at] = Pick(Dictionary(), &rng);
          break;
        case 1:
          argv[at] = Mutate(argv[at], flat, &rng);
          break;
        case 2:
          if (argv.size() > 1) {
            argv.erase(argv.begin() + static_cast<long>(at));
          }
          break;
        default:
          argv.insert(argv.begin() + static_cast<long>(at), argv[at]);
          break;
      }
    }
    std::vector<const char*> raw = {"graphguard"};
    std::string joined;
    for (const std::string& arg : argv) {
      raw.push_back(arg.c_str());
      joined += " " + arg;
    }
    const eval::Args args =
        eval::Args::Parse(static_cast<int>(raw.size()), raw.data());
    eval::AttackerSpec attack;
    const status::Status attack_read =
        eval::ReadFlags(args, {"in", "out", "deadline"}, &attack);
    ExpectAcceptedOrInvalidInput(attack_read, joined);
    if (attack_read.ok()) {
      ASSERT_TRUE(eval::Validate(attack).ok()) << joined;
    }
    eval::EvalSpec evaluation;
    const status::Status eval_read =
        eval::ReadFlags(args, {"in"}, &evaluation);
    ExpectAcceptedOrInvalidInput(eval_read, joined);
    if (eval_read.ok()) {
      ASSERT_TRUE(eval::Validate(evaluation).ok()) << joined;
    }
    ++(attack_read.ok() || eval_read.ok() ? accepted : refused);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzTest, JsonParseFailsCleanlyOrRoundTrips) {
  std::vector<std::string> corpus = JournalCorpus();
  corpus.push_back(R"({"a":[1,-2.5e3,"x\n\"y\"",[true,false,null]],"e":{}})");
  corpus.push_back(std::string(60, '[') + std::string(60, ']'));
  corpus.push_back(std::string(200, '{'));
  linalg::Rng rng(kSeed);
  int parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = Mutate(Pick(corpus, &rng), corpus, &rng);
    obs::Json doc;
    std::string error;
    if (!obs::Json::Parse(text, &doc, &error)) {
      ASSERT_FALSE(error.empty()) << text;
      continue;
    }
    ++parsed;
    // What parses dumps to a document that parses to the same dump.
    const std::string dumped = doc.Dump();
    obs::Json again;
    ASSERT_TRUE(obs::Json::Parse(dumped, &again, &error)) << error;
    ASSERT_EQ(again.Dump(), dumped) << text;
  }
  EXPECT_GT(parsed, 0);
}

TEST(FuzzTest, JournalRecordsDecodeOrFailIoError) {
  const std::vector<std::string> corpus = JournalCorpus();
  linalg::Rng rng(kSeed);
  int decoded = 0;
  int crc_mismatches = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string line =
        MaybeReseal(Mutate(Pick(corpus, &rng), corpus, &rng), &rng);
    obs::Json record;
    std::string error;
    if (obs::Unseal(line, &record, &error) ==
        obs::Unsealed::kCrcMismatch) {
      ++crc_mismatches;
    }
    serve::JournalRecord out;
    const status::Status status =
        serve::DecodeJournalRecord(line, "journal.jsonl:1", &out);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), status::Code::kIoError)
          << status.ToString() << "\ninput: " << line;
      continue;
    }
    ++decoded;
    // A record that decodes encodes to one that decodes the same way.
    serve::JournalRecord again;
    ASSERT_TRUE(serve::DecodeJournalRecord(serve::EncodeJournalRecord(out),
                                           "journal.jsonl:1", &again)
                    .ok())
        << line;
    ASSERT_EQ(serve::EncodeJournalRecord(again),
              serve::EncodeJournalRecord(out));
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(crc_mismatches, 0);
}

TEST(FuzzTest, MutatedJournalReplaysOrFailsIoError) {
  const std::vector<std::string> lines = JournalCorpus();
  std::string journal;
  for (const std::string& line : lines) journal += line;
  const std::vector<std::string> corpus = {journal};
  const std::string dir = TempPath("journal");
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + serve::kJournalFileName;
  linalg::Rng rng(kSeed);
  int corrupt = 0;
  for (int i = 0; i < kIterations / 10; ++i) {
    std::string text = Mutate(journal, corpus, &rng);
    // Re-seal one line now and then so replay folds odd-but-valid
    // records too.
    const size_t start = text.rfind('\n', Position(text, &rng));
    const size_t from = start == std::string::npos ? 0 : start + 1;
    const size_t end = text.find('\n', from);
    if (end != std::string::npos) {
      std::string line = MaybeReseal(text.substr(from, end - from), &rng);
      if (!line.empty() && line.back() == '\n') line.pop_back();
      text = text.substr(0, from) + line + text.substr(end);
    }
    WriteFile(path, text);
    const status::StatusOr<serve::ReplayResult> replay =
        serve::ReplayJournal(dir);
    ExpectOkInvalidInputOrIoError(replay.status(), text);
    if (replay.ok()) corrupt += replay->corrupt_records;
  }
  EXPECT_GT(corrupt, 0);
  std::remove(path.c_str());
}

TEST(FuzzTest, MutatedCheckpointsResumeOrFailCleanly) {
  linalg::Rng graph_rng(kSeed);
  const graph::Graph g = graph::MakeCoraLike(&graph_rng, 0.05);
  attack::AttackOptions attack_options;
  attack_options.perturbation_rate = 0.2;
  core::PeegaAttack::Options options;
  options.checkpoint_path = TempPath("checkpoint.json");
  options.checkpoint_every = 1;
  std::remove(options.checkpoint_path.c_str());
  debug::ArmFailpoint("peega.interrupt", "3");
  linalg::Rng interrupted_rng(kSeed);
  const attack::AttackResult interrupted =
      core::PeegaAttack(options).Attack(g, attack_options, &interrupted_rng);
  debug::DisarmAllFailpoints();
  ASSERT_EQ(interrupted.status.code(), status::Code::kCancelled)
      << interrupted.status.ToString();
  const std::string checkpoint = ReadFile(options.checkpoint_path);
  ASSERT_FALSE(checkpoint.empty());
  const std::vector<std::string> corpus = {checkpoint};

  linalg::Rng rng(kSeed);
  int resumed = 0;
  int refused = 0;
  for (int i = 0; i < kIterations / 20; ++i) {
    const std::string text =
        MaybeReseal(Mutate(checkpoint, corpus, &rng), &rng);
    WriteFile(options.checkpoint_path, text);
    linalg::Rng attack_rng(kSeed);
    const attack::AttackResult result =
        core::PeegaAttack(options).Attack(g, attack_options, &attack_rng);
    ExpectOkInvalidInputOrIoError(result.status, text);
    ++(result.status.ok() ? resumed : refused);
  }
  EXPECT_GT(resumed, 0);
  EXPECT_GT(refused, 0);
  std::remove(options.checkpoint_path.c_str());
}

TEST(FuzzTest, MutatedGraphFilesLoadOrFailCleanly) {
  linalg::Rng graph_rng(kSeed);
  const graph::Graph g = graph::MakeCoraLike(&graph_rng, 0.05);
  const std::string path = TempPath("graph.txt");
  ASSERT_TRUE(graph::SaveGraph(g, path).ok());
  const std::string saved = ReadFile(path);
  // A short file declaring a feature matrix just past the memory limit.
  std::string oversized = "peega-graph 1\nbig\n1000 2 268436\n0\n0\n";
  for (int v = 0; v < 1000; ++v) oversized += "0 ";
  oversized += "\n0\n0\n0\n";
  const std::vector<std::string> corpus = {saved, oversized};
  linalg::Rng rng(kSeed);
  int loaded = 0;
  for (int i = 0; i < kIterations / 10; ++i) {
    const std::string text = Mutate(Pick(corpus, &rng), corpus, &rng);
    WriteFile(path, text);
    const status::StatusOr<graph::Graph> result = graph::LoadGraph(path);
    ExpectOkInvalidInputOrIoError(result.status(), text);
    if (result.ok()) ++loaded;
  }
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

TEST(FuzzTest, MutatedModelFilesLoadOrFailCleanly) {
  linalg::Rng graph_rng(kSeed);
  const graph::Graph g = graph::MakeCoraLike(&graph_rng, 0.05);
  const std::string graph_path = TempPath("model_graph.txt");
  ASSERT_TRUE(graph::SaveGraph(g, graph_path).ok());
  const std::string path = TempPath("model.ggm");
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  ASSERT_EQ(gg_load_graph(gg, graph_path.c_str()), GG_OK);
  ASSERT_EQ(gg_assign_splits(gg, 0.2, 0.2, 7), GG_OK);
  ASSERT_EQ(gg_train_model(gg, 4, 2, 1), GG_OK) << gg_last_error(gg);
  ASSERT_EQ(gg_save_model(gg, path.c_str()), GG_OK) << gg_last_error(gg);
  const std::string saved = ReadFile(path);
  const std::vector<std::string> corpus = {saved};
  linalg::Rng rng(kSeed);
  int loaded = 0;
  for (int i = 0; i < kIterations / 10; ++i) {
    const std::string text = Mutate(saved, corpus, &rng);
    WriteFile(path, text);
    const gg_status code = gg_load_model(gg, path.c_str());
    ASSERT_TRUE(code == GG_OK || code == GG_INVALID_INPUT ||
                code == GG_IO_ERROR)
        << gg_status_name(code) << ": " << gg_last_error(gg)
        << "\ninput: " << text;
    if (code == GG_OK) ++loaded;
  }
  EXPECT_GT(loaded, 0);
  gg_free(gg);
  std::remove(path.c_str());
  std::remove(graph_path.c_str());
}

// gg_set_graph_csr over mutated copies of three CSR seeds: a valid
// 4-cycle, the cycle with one edge listed twice in both its rows, and a
// row_ptr that ends negative. Entries stay within the buffers' bounds.
// Invariant: GG_INVALID_INPUT, or GG_OK with every listed entry one
// edge of the installed graph.
TEST(FuzzTest, MutatedCsrBuffersInstallOrFailInvalidInput) {
  const int32_t n = 4;
  const std::vector<std::vector<int64_t>> row_ptrs = {
      {0, 2, 4, 6, 8}, {0, 3, 6, 8, 10}, {0, 2, 4, 6, -1}};
  const std::vector<std::vector<int32_t>> col_idxs = {
      {1, 3, 0, 2, 1, 3, 0, 2},
      {1, 1, 3, 0, 0, 2, 1, 3, 0, 2},
      {1, 3, 0, 2, 1, 3, 0, 2}};
  gg_ctx* gg = gg_init();
  ASSERT_NE(gg, nullptr);
  linalg::Rng rng(kSeed);
  int installed = 0;
  for (int i = 0; i < kIterations / 10; ++i) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<int64_t> row_ptr = row_ptrs[pick];
    std::vector<int32_t> col_idx = col_idxs[pick];
    const int64_t size = static_cast<int64_t>(col_idx.size());
    for (int64_t e = rng.UniformInt(0, 3); e > 0; --e) {
      if (rng.UniformInt(0, 1) == 0) {
        row_ptr[static_cast<size_t>(rng.UniformInt(1, n))] =
            rng.UniformInt(-2, size);
      } else {
        col_idx[static_cast<size_t>(rng.UniformInt(0, size - 1))] =
            static_cast<int32_t>(rng.UniformInt(-1, n));
      }
    }
    const gg_status code = gg_set_graph_csr(
        gg, n, 2, row_ptr.data(), col_idx.data(), 0, nullptr, nullptr);
    ASSERT_TRUE(code == GG_OK || code == GG_INVALID_INPUT)
        << gg_status_name(code) << ": " << gg_last_error(gg) << "\nseed "
        << pick << " mutated " << i;
    if (code == GG_OK) {
      ++installed;
      EXPECT_EQ(2 * gg_num_edges(gg), row_ptr[n]) << "mutated " << i;
    }
  }
  EXPECT_GT(installed, 0);
  gg_free(gg);
}

}  // namespace
}  // namespace repro
