#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace repro::parallel {

namespace {

// True while the current thread is executing chunks of a parallel
// region; nested parallel calls then run serially (see header).
thread_local bool t_in_parallel_region = false;

int DefaultNumThreads() {
  if (const char* env = std::getenv("PEEGA_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

// Process-wide fork-join pool. The calling thread is always executor 0;
// workers_[i] is executor i+1. Workers park on a condition variable and
// are woken by a generation bump; every woken worker checks in through
// `pending_` so the caller knows the region has fully drained before
// the next one starts.
class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool();  // leaked: workers may outlive main
    return *pool;
  }

  int num_threads() {
    const int override_n = override_threads_.load(std::memory_order_relaxed);
    return override_n > 0 ? override_n : default_threads_;
  }

  void set_num_threads(int n) {
    override_threads_.store(n > 0 ? n : 0, std::memory_order_relaxed);
  }

  // Executes `executor(e)` for e in [0, want_threads) across the pool,
  // main thread included. Blocks until every executor returned.
  void Run(int want_threads, const std::function<void(int)>& executor) {
    EnsureWorkers(want_threads - 1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ = &executor;
      task_threads_ = want_threads;
      pending_ = static_cast<int>(workers_.size());
      ++generation_;
      work_cv_.notify_all();
    }
    // Executor 0 (the calling thread) must carry the in-parallel-region
    // flag exactly like the workers do: a nested ParallelFor issued from
    // inside `executor` would otherwise re-enter Run() and clobber the
    // in-flight task_/pending_/generation_ state.
    t_in_parallel_region = true;
    executor(0);
    t_in_parallel_region = false;
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    task_ = nullptr;
  }

 private:
  Pool() : default_threads_(DefaultNumThreads()) {}

  void EnsureWorkers(int want) {
    std::unique_lock<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < want) {
      const int executor_id = static_cast<int>(workers_.size()) + 1;
      // A new worker starts at the current generation: pending_ counts
      // it only from the next region on, and a check-out for a region
      // it was not counted in would end the next one early, with a
      // worker still running its chunks.
      const uint64_t seen = generation_;
      workers_.emplace_back(
          [this, executor_id, seen] { WorkerLoop(executor_id, seen); });
    }
  }

  void WorkerLoop(int executor_id, uint64_t seen) {
    while (true) {
      const std::function<void(int)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (executor_id < task_threads_) task = task_;
      }
      if (task != nullptr) {
        t_in_parallel_region = true;
        (*task)(executor_id);
        t_in_parallel_region = false;
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  const int default_threads_;
  std::atomic<int> override_threads_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;  // executor ids 1..size()
  const std::function<void(int)>* task_ = nullptr;
  int task_threads_ = 0;
  int pending_ = 0;
  uint64_t generation_ = 0;
};

}  // namespace

int64_t NumChunks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  grain = std::max<int64_t>(grain, 1);
  return (n + grain - 1) / grain;
}

int NumThreads() { return Pool::Instance().num_threads(); }

void SetNumThreads(int n) { Pool::Instance().set_num_threads(n); }

void ParallelForChunked(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  const int64_t chunks = NumChunks(n, grain);
  if (chunks <= 0) return;
  // Dispatch observability: the chunk count depends only on (n, grain)
  // — never on the worker assignment — so both counters are part of the
  // determinism contract checked by tests/obs_test.cc.
  static obs::Counter* const region_count =
      obs::GetCounter("parallel.regions");
  static obs::Counter* const chunk_count = obs::GetCounter("parallel.chunks");
  region_count->Add(1);
  chunk_count->Add(static_cast<uint64_t>(chunks));
  const obs::TraceSpan span("parallel.region");
  grain = std::max<int64_t>(grain, 1);
  const int threads = static_cast<int>(std::min<int64_t>(
      t_in_parallel_region ? 1 : NumThreads(), chunks));
  static obs::Gauge* const thread_gauge = obs::GetGauge("parallel.threads");
  thread_gauge->Set(static_cast<double>(threads));
  if (threads <= 1) {
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t b = begin + c * grain;
      fn(b, std::min(b + grain, end), c);
    }
    return;
  }
  // Static round-robin chunk assignment: executor e owns chunks
  // e, e + threads, e + 2*threads, ... Assignment affects only which
  // thread runs a chunk, never the chunk boundaries, so it is free to
  // vary with the thread count without breaking determinism.
  Pool::Instance().Run(threads, [&](int executor) {
    for (int64_t c = executor; c < chunks; c += threads) {
      const int64_t b = begin + c * grain;
      fn(b, std::min(b + grain, end), c);
    }
  });
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  ParallelForChunked(begin, end, grain,
                     [&fn](int64_t b, int64_t e, int64_t) { fn(b, e); });
}

}  // namespace repro::parallel
