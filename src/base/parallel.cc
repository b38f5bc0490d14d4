#include "base/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace x2vec {
namespace {

/// > 0 while this thread is running ParallelFor chunks (at any depth).
thread_local int parallel_region_depth = 0;

std::mutex config_mu;
/// 0 = unresolved; resolved lazily from X2VEC_THREADS / hardware.
int configured_threads = 0;

/// Shared state of one ParallelFor invocation; lives on the caller's
/// stack, so the caller must not return before every helper task has run.
struct LoopState {
  std::atomic<int64_t> next_chunk{0};
  std::atomic<bool> cancelled{false};

  std::mutex failure_mu;
  int64_t failed_chunk = -1;  ///< Lowest failing chunk index seen so far.
  Status failure;
  std::exception_ptr exception;  ///< Set iff the failure was a throw.

  std::mutex done_mu;
  std::condition_variable done_cv;
  int pending_helpers = 0;
};

/// Claims and runs chunks until the range is exhausted or the loop is
/// cancelled. Runs on the caller and on every helper.
void RunChunks(int64_t n, int64_t grain, int64_t chunks,
               const std::function<Status(int64_t, int64_t)>& body,
               LoopState& state) {
  ++parallel_region_depth;
  while (!state.cancelled.load(std::memory_order_relaxed)) {
    const int64_t c = state.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) break;
    const int64_t lo = c * grain;
    const int64_t hi = std::min(n, lo + grain);
    Status status;
    std::exception_ptr exception;
    try {
      status = body(lo, hi);
    } catch (...) {
      exception = std::current_exception();
    }
    if (!status.ok() || exception) {
      std::lock_guard<std::mutex> lock(state.failure_mu);
      if (state.failed_chunk < 0 || c < state.failed_chunk) {
        state.failed_chunk = c;
        state.failure = std::move(status);
        state.exception = exception;
      }
      state.cancelled.store(true, std::memory_order_relaxed);
    }
  }
  --parallel_region_depth;
}

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(const char* env_value, int hardware) {
  if (env_value == nullptr || *env_value == '\0') return hardware;
  char* end = nullptr;
  const long parsed = std::strtol(env_value, &end, 10);
  if (end == env_value || *end != '\0' || parsed < 1) return hardware;
  // Cap against absurd settings; 1024 already far exceeds any sane pool.
  return static_cast<int>(std::min<long>(parsed, 1024));
}

int ThreadCount() {
  std::lock_guard<std::mutex> lock(config_mu);
  if (configured_threads == 0) {
    configured_threads =
        ResolveThreadCount(std::getenv("X2VEC_THREADS"), HardwareThreads());
  }
  return configured_threads;
}

void SetThreadCount(int threads) {
  {
    std::lock_guard<std::mutex> lock(config_mu);
    configured_threads = threads >= 1 ? std::min(threads, 1024) : 0;
  }
  // Spawned here, not in the first ParallelFor: a thread inherits the CPU
  // mask of the thread that creates it, and a caller may pin itself to one
  // CPU between this call and its first loop. Outside config_mu, because
  // Shared() and ThreadCount() take it.
  ThreadPool::Shared().EnsureWorkers(ThreadCount() - 1);
}

bool InParallelRegion() { return parallel_region_depth > 0; }

ThreadPool::ThreadPool(int workers) { EnsureWorkers(workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    X2VEC_CHECK(!shutdown_) << "Submit() on a shut-down ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::EnsureWorkers(int workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < workers) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

void ThreadPool::WorkerMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::Shared() {
  // Function-local static: joined cleanly at process exit (the pool is
  // idle by then — every ParallelFor waits out its helpers).
  static ThreadPool pool(std::max(0, ThreadCount() - 1));
  return pool;
}

Status ParallelFor(int64_t n, int64_t grain,
                   const std::function<Status(int64_t, int64_t)>& body) {
  if (n <= 0) return Status::Ok();
  if (grain <= 0) {
    grain = std::max<int64_t>(1, (n + kAutoGrainChunks - 1) / kAutoGrainChunks);
  }
  const int64_t chunks = (n + grain - 1) / grain;

  LoopState state;
  // Nested calls run inline on the current thread: pool workers waiting on
  // their own subtasks could otherwise occupy every worker and deadlock.
  const bool inline_only = InParallelRegion() || chunks == 1;
  const int helpers =
      inline_only ? 0
                  : static_cast<int>(
                        std::min<int64_t>(ThreadCount() - 1, chunks - 1));
  if (helpers > 0) {
    ThreadPool& pool = ThreadPool::Shared();
    pool.EnsureWorkers(helpers);
    state.pending_helpers = helpers;
    for (int i = 0; i < helpers; ++i) {
      pool.Submit([&state, n, grain, chunks, &body] {
        RunChunks(n, grain, chunks, body, state);
        std::lock_guard<std::mutex> lock(state.done_mu);
        if (--state.pending_helpers == 0) state.done_cv.notify_all();
      });
    }
  }
  RunChunks(n, grain, chunks, body, state);
  if (helpers > 0) {
    // state lives on this stack frame: every submitted task must have run
    // to completion before we return, even on cancellation.
    std::unique_lock<std::mutex> lock(state.done_mu);
    state.done_cv.wait(lock, [&state] { return state.pending_helpers == 0; });
  }
  if (state.exception) std::rethrow_exception(state.exception);
  if (state.failed_chunk >= 0) return state.failure;
  return Status::Ok();
}

}  // namespace x2vec
