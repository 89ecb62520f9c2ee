#include "obs/trace.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/stopwatch.h"

namespace repro::obs {

namespace internal {
// Constant-initialized so spans constructed during static init are
// simply inert; the environment is consulted by EnvInit below.
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

uint64_t NowNanos() {
  // The epoch is pinned by the first call (thread-safe static init).
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

struct Event {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
};

// Fixed-size chunks form a grow-only linked list per thread. A slot is
// written first, then published by the release store of `count`; the
// flusher reads `count` with acquire and only touches slots below it,
// so appends never need a lock and flushing never tears an event.
constexpr size_t kChunkCapacity = 4096;

struct Chunk {
  std::array<Event, kChunkCapacity> events;
  std::atomic<size_t> count{0};
  std::atomic<Chunk*> next{nullptr};
};

struct ThreadBuffer {
  explicit ThreadBuffer(int tid_in) : tid(tid_in), head(new Chunk()) {
    tail = head;
  }
  const int tid;
  Chunk* const head;
  // Owner-thread state: which chunk receives the next append. Read and
  // written only by the owning thread (and by ClearTrace, whose
  // quiescence contract supplies the ordering).
  Chunk* tail;
};

// Process-wide registry of all thread buffers, mutated only when a new
// thread records its first span. Leaked on purpose: pool workers (and
// their buffers) outlive main, and a reachable static keeps LeakSanitizer
// quiet while letting flush run at any point, including atexit.
struct Registry {
  std::mutex mu;
  std::vector<ThreadBuffer*> buffers;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

ThreadBuffer& GetThreadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto* created = new ThreadBuffer(static_cast<int>(registry.buffers.size()));
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

void Append(const char* name, uint64_t start_ns, uint64_t dur_ns) {
  ThreadBuffer& buffer = GetThreadBuffer();
  Chunk* chunk = buffer.tail;
  size_t n = chunk->count.load(std::memory_order_relaxed);
  if (n == kChunkCapacity) {
    auto* grown = new Chunk();
    chunk->next.store(grown, std::memory_order_release);
    buffer.tail = grown;
    chunk = grown;
    n = 0;
  }
  chunk->events[n] = {name, start_ns, dur_ns};
  chunk->count.store(n + 1, std::memory_order_release);
}

// Applies `fn(tid, event)` to every published event of every buffer.
template <typename Fn>
void ForEachEvent(const Fn& fn) {
  Registry& registry = GetRegistry();
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const ThreadBuffer* buffer : buffers) {
    for (const Chunk* chunk = buffer->head; chunk != nullptr;
         chunk = chunk->next.load(std::memory_order_acquire)) {
      const size_t count = chunk->count.load(std::memory_order_acquire);
      for (size_t i = 0; i < count; ++i) {
        fn(buffer->tid, chunk->events[i]);
      }
      if (count < kChunkCapacity) break;  // last published chunk
    }
  }
}

// PEEGA_TRACE: "" / "0" → off, "1" → on (caller flushes), anything
// else → on, auto-written to that path at process exit.
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("PEEGA_TRACE");
    if (env == nullptr || env[0] == '\0' ||
        (env[0] == '0' && env[1] == '\0')) {
      return;
    }
    internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
    if (!(env[0] == '1' && env[1] == '\0')) {
      static std::string path;  // atexit callback needs stable storage
      path = env;
      std::atexit([] { WriteTrace(path); });
    }
  }
};
const EnvInit g_env_init;

// Recorded nanoseconds as microseconds with exactly three decimals,
// whatever the stream's precision or float format: full resolution at
// any trace length.
void WriteMicros(uint64_t ns, std::ostream& out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out << buf;
}

}  // namespace

void SetTracing(bool enabled) {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void TraceSpan::Begin(const char* name) {
  name_ = name;
  start_ns_ = NowNanos();
}

void TraceSpan::End() {
  Append(name_, start_ns_, NowNanos() - start_ns_);
}

void FlushTraceTo(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata so Perfetto labels tracks; tid 0 is whichever
  // thread traced first (normally main).
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const ThreadBuffer* buffer : registry.buffers) {
      if (!first) out << ',';
      first = false;
      out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << buffer->tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << (buffer->tid == 0 ? "main" : "worker-" +
                                              std::to_string(buffer->tid))
          << "\"}}";
    }
  }
  ForEachEvent([&](int tid, const Event& event) {
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"cat\":\"peega\""
        << ",\"name\":\"";
    JsonEscape(event.name, out);
    out << "\",\"ts\":";
    WriteMicros(event.start_ns, out);
    out << ",\"dur\":";
    WriteMicros(event.dur_ns, out);
    out << "}";
  });
  out << "]}";
}

bool WriteTrace(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  FlushTraceTo(out);
  return static_cast<bool>(out);
}

size_t TraceEventCount() {
  size_t total = 0;
  ForEachEvent([&](int, const Event&) { ++total; });
  return total;
}

void ClearTrace() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (ThreadBuffer* buffer : registry.buffers) {
    // Drop every chunk past the head and rewind; the quiescence
    // contract means no owner thread is appending concurrently.
    Chunk* chunk = buffer->head->next.exchange(nullptr);
    while (chunk != nullptr) {
      Chunk* next = chunk->next.load(std::memory_order_relaxed);
      delete chunk;
      chunk = next;
    }
    buffer->head->count.store(0, std::memory_order_release);
    buffer->tail = buffer->head;
  }
}

}  // namespace repro::obs
