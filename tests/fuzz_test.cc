// Seeded mutational fuzzing of the readers that take op fields from
// outside the process: serve::ParseRequest and serve::ParseJob (which
// runs eval::ReadJson) over request lines, and eval::ReadFlags over
// command lines. The seed corpora are the request shapes serve_load and
// journal_test send and the CLI invocations of the CI smokes. The seed
// and the iteration budget are fixed, so a failure reproduces exactly.
// Invariant: every input is either accepted with a spec that validates,
// or refused with INVALID_INPUT; no other code, no crash (the
// asan-ubsan preset runs this test too).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/args.h"
#include "eval/op_schema.h"
#include "linalg/random.h"
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

}  // namespace
}  // namespace repro
