#include "debug/failpoints.h"

#include <cstdlib>
#include <cstring>

#include "debug/check.h"

namespace repro::debug {

namespace internal {
std::atomic<int> g_armed_failpoints{0};
}  // namespace internal

namespace {

struct Site {
  const char* name;
  std::atomic<bool> armed{false};
  bool after = false;     // written under arm, read after armed-check
  long fire_at = 0;       // 1-based hit index (or threshold for after:)
  std::atomic<long> hits{0};
};

// Central registry: every PEEGA_FAILPOINT site in the tree must appear
// here so tests can sweep the full set without executing every path
// first. Keep in sync with the call sites (failpoint_test.cc arms each
// one and asserts it actually fires through the pipeline).
Site g_sites[] = {
    {"io.read"},        // graph/io.cc LoadGraph
    {"io.write"},       // graph/io.cc SaveGraph
    {"linalg.spmm"},    // linalg/ops.cc SpMM: poisons the output with NaN
    {"engine.step"},    // core/peega_engine.cc RefreshScores
    {"trainer.epoch"},  // nn/trainer.cc epoch loop: poisons the loss
    {"peega.interrupt"},  // attack/greedy.h greedy loop: kCancelled
    // serve.* sites fire inside the job server; failpoint_test's
    // save/load/attack/defend sweep skips them and journal_test sweeps
    // them through a live server instead.
    {"serve.accept"},   // serve/server.cc IoLoop: drops a fresh connection
    {"serve.parse"},    // serve/server.cc HandleLine: kInvalidInput
    {"serve.execute"},  // serve/server.cc RunJob: kNumericFault (transient)
    {"serve.respond"},  // serve/server.cc Respond: closes the connection
    {"serve.journal.append"},  // serve/journal.cc Append: kIoError
};

Site* FindSite(const char* name) {
  for (Site& site : g_sites) {
    if (std::strcmp(site.name, name) == 0) return &site;
  }
  return nullptr;
}

// PEEGA_FAILPOINTS=name=spec[,name=spec...]; parsed once before main so
// env-armed sites are live from the first hit.
bool InitFromEnv() {
  const char* env = std::getenv("PEEGA_FAILPOINTS");
  if (env == nullptr || *env == '\0') return true;
  std::string spec(env);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    const size_t eq = entry.find('=');
    PEEGA_CHECK(eq != std::string::npos)
        << " — PEEGA_FAILPOINTS entry without '=': " << entry;
    ArmFailpoint(entry.substr(0, eq), entry.substr(eq + 1));
    pos = comma + 1;
  }
  return true;
}

const bool g_env_inited = InitFromEnv();

}  // namespace

bool FailpointHit(const char* name) {
  (void)g_env_inited;
  Site* site = FindSite(name);
  PEEGA_CHECK(site != nullptr)
      << " — failpoint hit for unregistered name: " << name;
  if (!site->armed.load(std::memory_order_acquire)) return false;
  const long n = site->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  return site->after ? n > site->fire_at : n == site->fire_at;
}

void ArmFailpoint(const std::string& name, const std::string& spec) {
  Site* site = FindSite(name.c_str());
  PEEGA_CHECK(site != nullptr)
      << " — arming unregistered failpoint: " << name;
  std::string count = spec;
  bool after = false;
  if (spec.rfind("after:", 0) == 0) {
    after = true;
    count = spec.substr(6);
  }
  PEEGA_CHECK(!count.empty()) << " — empty failpoint spec for " << name;
  char* end = nullptr;
  const long fire_at = std::strtol(count.c_str(), &end, 10);
  PEEGA_CHECK(end != nullptr && *end == '\0' && fire_at >= 0)
      << " — malformed failpoint spec for " << name << ": " << spec;
  if (!site->armed.load(std::memory_order_relaxed)) {
    internal::g_armed_failpoints.fetch_add(1, std::memory_order_relaxed);
  }
  site->after = after;
  site->fire_at = fire_at;
  site->hits.store(0, std::memory_order_relaxed);
  site->armed.store(true, std::memory_order_release);
}

void DisarmFailpoint(const std::string& name) {
  Site* site = FindSite(name.c_str());
  PEEGA_CHECK(site != nullptr)
      << " — disarming unregistered failpoint: " << name;
  if (site->armed.exchange(false, std::memory_order_acq_rel)) {
    internal::g_armed_failpoints.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAllFailpoints() {
  for (Site& site : g_sites) {
    if (site.armed.exchange(false, std::memory_order_acq_rel)) {
      internal::g_armed_failpoints.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

std::vector<std::string> RegisteredFailpoints() {
  std::vector<std::string> names;
  for (const Site& site : g_sites) names.emplace_back(site.name);
  return names;
}

}  // namespace repro::debug
