#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/check.h"
#include "base/status.h"

namespace x2vec {

/// Parallel execution runtime shared by the library's hot paths (Gram
/// matrices, WL sweeps, walk corpora, sharded trainers).
///
/// The contract is determinism by construction: every parallelized path
/// must produce bit-identical results at any thread count, including 1.
/// ParallelFor guarantees the building blocks of that contract:
///
///   - Chunk boundaries depend only on the range and the grain (the
///     automatic grain is a function of n alone), never on the thread
///     count or on which worker picks up which chunk.
///   - The caller blocks until every chunk has run, so chunk bodies may
///     write to disjoint slices of caller-owned storage.
///   - Callers that need an ordered reduction accumulate per chunk and
///     fold the per-chunk results in chunk-index order after the loop.
///
/// Randomised parallel work derives one Rng stream per logical work item
/// via Rng::Fork(seed, item) (never per thread), so draws are tied to the
/// item, not to the scheduling.

/// Number of hardware threads (>= 1 even when the runtime reports 0).
int HardwareThreads();

/// Resolves a thread-count setting from an X2VEC_THREADS-style string:
/// a positive integer wins, anything absent or malformed falls back to
/// `hardware`. Exposed separately so tests can cover the parsing without
/// mutating the process environment.
int ResolveThreadCount(const char* env_value, int hardware);

/// The logical thread count used by ParallelFor. Resolution order:
/// SetThreadCount() override, then the X2VEC_THREADS environment variable
/// (read once, on first use), then HardwareThreads().
int ThreadCount();

/// Overrides the logical thread count (values < 1 reset to the default) and
/// spawns the shared pool's ThreadCount() - 1 workers before it returns.
/// Thread-safe. Changing it never changes results, only scheduling.
void SetThreadCount(int threads);

/// True while the calling thread is executing inside a ParallelFor chunk.
/// Nested ParallelFor calls detect this and run inline (serially) instead
/// of re-entering the pool — the nested-submit deadlock guard.
bool InParallelRegion();

/// Grow-only worker pool. Most callers never touch it and go through
/// ParallelFor and the shared pool; the class is public for tests and for
/// callers with bespoke scheduling needs. A worker keeps the CPU mask of
/// the thread that spawned it. Submitted tasks are drained (run to
/// completion) before the destructor returns.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Current number of worker threads.
  int workers() const;

  /// Grows the pool to at least `workers` threads (never shrinks).
  void EnsureWorkers(int workers);

  /// The process-wide pool used by ParallelFor: ThreadCount() - 1 workers
  /// (the caller is the extra participant), spawned by SetThreadCount(), or
  /// by the first ParallelFor when the count comes from the environment.
  static ThreadPool& Shared();

 private:
  void WorkerMain();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// Target chunk count for the automatic grain. A pure function of n keeps
/// chunk boundaries — and therefore per-chunk RNG streams and reduction
/// orders — independent of the thread count (the determinism contract).
inline constexpr int64_t kAutoGrainChunks = 64;

/// Runs `body(begin, end)` over [0, n) split into chunks of `grain`
/// indices (`grain` <= 0 selects an automatic grain that depends only on
/// n). The calling thread participates; up to ThreadCount() - 1 shared
/// pool workers help. Blocks until every chunk has finished or the loop
/// is cancelled.
///
/// Cancellation: the first chunk returning a non-OK Status stops the loop
/// — remaining chunks are abandoned — and that Status is returned (when
/// several chunks fail, the lowest chunk index wins). Exceptions thrown
/// by a chunk cancel the same way and are rethrown in the caller. Either
/// way partial effects of completed chunks remain; error paths carry no
/// bit-identical guarantee (success paths do).
[[nodiscard]] Status ParallelFor(int64_t n, int64_t grain,
                   const std::function<Status(int64_t, int64_t)>& body);

/// ParallelFor for passes that charge their work up front but must stop
/// at a deadline: each chunk first reads it (Budget::DeadlineReached, safe
/// from any thread) and, once it has passed, cancels the loop, which then
/// returns budget.ExhaustedError(operation). A pass thus overruns a
/// deadline by about one chunk a thread. `grain` <= 0 selects the
/// automatic grain capped at Budget::kClockCheckStride indices, so the
/// deadline is read at least as often as Budget::Spend() would read it.
[[nodiscard]] inline Status ParallelForUntilDeadline(
    int64_t n, int64_t grain, Budget& budget, std::string_view operation,
    const std::function<Status(int64_t, int64_t)>& body) {
  if (grain <= 0) {
    grain = std::clamp<int64_t>((n + kAutoGrainChunks - 1) / kAutoGrainChunks,
                                1, Budget::kClockCheckStride);
  }
  const Status status = ParallelFor(n, grain, [&](int64_t lo, int64_t hi) {
    return budget.DeadlineReached() ? Status::ResourceExhausted("deadline")
                                    : body(lo, hi);
  });
  if (budget.DeadlinePassed()) return budget.ExhaustedError(operation);
  return status;
}

/// Maps i -> fn(i) over [0, n) in parallel and returns the results in
/// index order. The element type must be default-constructible; fn must
/// not throw.
template <typename Fn>
auto ParallelMap(int64_t n, Fn&& fn)
    -> std::vector<decltype(fn(static_cast<int64_t>(0)))> {
  using T = decltype(fn(static_cast<int64_t>(0)));
  std::vector<T> out(static_cast<size_t>(n));
  const Status status = ParallelFor(n, 0, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) out[static_cast<size_t>(i)] = fn(i);
    return Status::Ok();
  });
  X2VEC_CHECK(status.ok()) << status.ToString();
  return out;
}

/// Thread-safe adapter over a (single-threaded) Budget, for spending from
/// inside ParallelFor chunks. Exhaustion latches across workers via an
/// atomic fast path, so a blown budget in any worker cancels the whole
/// loop as soon as every other worker next probes the gate.
class BudgetGate {
 public:
  explicit BudgetGate(Budget& budget) : budget_(budget) {}

  BudgetGate(const BudgetGate&) = delete;
  BudgetGate& operator=(const BudgetGate&) = delete;

  /// Thread-safe Budget::Spend. Prefer one coarse call per chunk (or per
  /// natural work item) over per-element calls: the gate takes a mutex.
  bool Spend(int64_t units = 1) {
    if (exhausted_.load(std::memory_order_relaxed)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    if (budget_.Spend(units)) return true;
    exhausted_.store(true, std::memory_order_relaxed);
    return false;
  }

  /// Thread-safe Budget::ExhaustedError.
  [[nodiscard]] Status ExhaustedError(std::string_view operation) {
    std::lock_guard<std::mutex> lock(mu_);
    return budget_.ExhaustedError(operation);
  }

 private:
  Budget& budget_;
  std::mutex mu_;
  std::atomic<bool> exhausted_{false};
};

/// Maps a flat index t in [0, n(n+1)/2) to the pair (i, j) with
/// 0 <= i <= j < n, enumerating the upper triangle row by row — the
/// decomposition used to parallelize symmetric Gram-matrix fills.
inline std::pair<int, int> UpperTriangleIndex(int64_t t, int64_t n) {
  const auto row_start = [n](int64_t r) { return r * (2 * n - r + 1) / 2; };
  // Initial guess from the quadratic inverse, corrected by +-1 steps
  // (sqrt rounding can be off by one near row boundaries).
  const double b = 2.0 * n + 1.0;
  int64_t i = static_cast<int64_t>((b - std::sqrt(b * b - 8.0 * t)) / 2.0);
  i = std::min(std::max<int64_t>(i, 0), n - 1);
  while (i > 0 && row_start(i) > t) --i;
  while (i + 1 < n && row_start(i + 1) <= t) ++i;
  return {static_cast<int>(i), static_cast<int>(i + (t - row_start(i)))};
}

}  // namespace x2vec
