// Unit tests for the parallel execution runtime (ctest label: parallel).
//
// Covers the ThreadPool lifecycle (startup, submit, drain-on-shutdown,
// grow-only resizing, the shared pool spawned by SetThreadCount with the
// caller's CPU mask), ParallelFor's contracts (full coverage, chunking
// independent of thread count, exception propagation, lowest-chunk error
// selection, the nested-submit deadlock guard), budget-gated cooperative
// cancellation, thread-count resolution from X2VEC_THREADS-style strings,
// and the UpperTriangleIndex pair decomposition.

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/status.h"

namespace x2vec {
namespace {

// Restores the configured thread count when a test body returns.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) { SetThreadCount(threads); }
  ~ScopedThreads() { SetThreadCount(0); }
};

// The shared pool never shrinks, so these two run first: they need a pool
// that no earlier test has grown.
TEST(SharedPoolTest, SetThreadCountSpawnsTheWorkers) {
  SetThreadCount(1);
  if (ThreadPool::Shared().workers() > 0) GTEST_SKIP() << "pool already grown";
  SetThreadCount(3);
  EXPECT_GE(ThreadPool::Shared().workers(), 2);
  SetThreadCount(0);
}

TEST(SharedPoolTest, WorkersKeepTheMaskFromBeforeTheCallerPinsItself) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  if (CPU_COUNT(&original) < 2) GTEST_SKIP() << "fewer than 2 CPUs allowed";
  ScopedThreads threads(3);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; CPU_COUNT(&one) == 0; ++cpu) {
    if (CPU_ISSET(cpu, &original)) CPU_SET(cpu, &one);
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const pthread_t caller = pthread_self();
  std::atomic<int> worker_chunks{0};
  std::atomic<int> other_masks{0};
  const Status status = ParallelFor(64, 1, [&](int64_t, int64_t) {
    if (pthread_equal(pthread_self(), caller)) {
      // Leave the chunks to the workers until one of them has run one.
      const Budget give_up = Budget::Deadline(10);
      while (worker_chunks.load() == 0 && !give_up.DeadlineReached()) {
        sched_yield();
      }
      return Status::Ok();
    }
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
        !CPU_EQUAL(&mask, &original)) {
      ++other_masks;
    }
    ++worker_chunks;
    return Status::Ok();
  });
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(worker_chunks.load(), 0);
  EXPECT_EQ(other_masks.load(), 0) << "a worker runs on the caller's pin";
}

TEST(ResolveThreadCountTest, ParsesPositiveIntegers) {
  EXPECT_EQ(ResolveThreadCount("1", 8), 1);
  EXPECT_EQ(ResolveThreadCount("4", 8), 4);
  EXPECT_EQ(ResolveThreadCount("64", 8), 64);
}

TEST(ResolveThreadCountTest, FallsBackToHardware) {
  EXPECT_EQ(ResolveThreadCount(nullptr, 8), 8);
  EXPECT_EQ(ResolveThreadCount("", 8), 8);
  EXPECT_EQ(ResolveThreadCount("0", 8), 8);
  EXPECT_EQ(ResolveThreadCount("-3", 8), 8);
  EXPECT_EQ(ResolveThreadCount("abc", 8), 8);
  EXPECT_EQ(ResolveThreadCount("2x", 8), 8);
}

TEST(ThreadCountTest, SetterOverridesAndResets) {
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3);
  SetThreadCount(0);  // Back to the environment/hardware default.
  EXPECT_GE(ThreadCount(), 1);
}

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1); }

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after what its tasks touch, so its destructor joins the worker
  // still notifying `cv` before `cv` and `mu` go out of scope.
  ThreadPool pool(2);
  EXPECT_EQ(pool.workers(), 2);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == 100) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainsQueueOnShutdown) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
    // Destructor must run every queued task before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.workers(), 3);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.workers(), 3);
}

TEST(ThreadPoolTest, ZeroWorkerPoolAcceptsNothing) {
  // A pool sized 0 (single-threaded configuration) is valid; ParallelFor
  // then runs everything on the calling thread.
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ScopedThreads threads(4);
  const int64_t n = 1000;
  std::vector<int> hits(n, 0);
  const Status status = ParallelFor(n, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[i];
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  const Status status = ParallelFor(0, 0, [&](int64_t, int64_t) {
    ADD_FAILURE() << "body must not run for an empty range";
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  const int64_t n = 513;
  auto boundaries = [&](int threads) {
    ScopedThreads scoped(threads);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    const Status status = ParallelFor(n, 0, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(lo, hi);
      return Status::Ok();
    });
    EXPECT_TRUE(status.ok());
    return chunks;
  };
  const auto serial = boundaries(1);
  EXPECT_EQ(boundaries(2), serial);
  EXPECT_EQ(boundaries(8), serial);
}

TEST(ParallelForTest, PropagatesFirstFailedChunkStatus) {
  ScopedThreads threads(4);
  // Several chunks fail; the lowest chunk index must win deterministically.
  const Status status = ParallelFor(100, 10, [&](int64_t lo, int64_t) {
    if (lo >= 50) {
      return Status::Internal("chunk at " + std::to_string(lo));
    }
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "chunk at 50");
}

TEST(ParallelForTest, RethrowsChunkExceptions) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      {
        (void)ParallelFor(64, 1, [&](int64_t lo, int64_t) -> Status {
          if (lo == 13) throw std::runtime_error("boom");
          return Status::Ok();
        });
      },
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ScopedThreads threads(4);
  EXPECT_FALSE(InParallelRegion());
  std::atomic<int64_t> inner_total{0};
  const Status status = ParallelFor(8, 1, [&](int64_t, int64_t) {
    EXPECT_TRUE(InParallelRegion());
    // A nested loop must not wait on pool workers that are all busy
    // running the outer loop — it runs inline on this thread.
    const Status inner = ParallelFor(10, 1, [&](int64_t lo, int64_t hi) {
      inner_total.fetch_add(hi - lo);
      return Status::Ok();
    });
    EXPECT_TRUE(inner.ok());
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(InParallelRegion());
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParallelForTest, BudgetGateCancelsMidLoop) {
  ScopedThreads threads(4);
  Budget budget = Budget::WorkUnits(10);
  BudgetGate gate(budget);
  std::atomic<int64_t> ran{0};
  const Status status = ParallelFor(1000, 1, [&](int64_t, int64_t) -> Status {
    if (!gate.Spend(1)) return gate.ExhaustedError("gated loop");
    ran.fetch_add(1);
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Cancellation is cooperative: some chunks may run before the failure is
  // observed, but nowhere near the whole range once the budget is gone.
  EXPECT_GE(ran.load(), 10);
  EXPECT_LT(ran.load(), 1000);
}

TEST(BudgetGateTest, ExhaustionLatchesAcrossCalls) {
  Budget budget = Budget::WorkUnits(5);
  BudgetGate gate(budget);
  EXPECT_TRUE(gate.Spend(5));
  EXPECT_FALSE(gate.Spend(1));
  EXPECT_FALSE(gate.Spend(1));  // Fast-path latch.
  const Status error = gate.ExhaustedError("op");
  EXPECT_EQ(error.code(), StatusCode::kResourceExhausted);
}

TEST(ParallelForUntilDeadlineTest, UnlimitedBudgetCoversTheRange) {
  Budget unlimited;
  std::atomic<int64_t> covered{0};
  const Status status = ParallelForUntilDeadline(
      1000, 7, unlimited, "probe", [&](int64_t lo, int64_t hi) {
        covered += hi - lo;
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(covered.load(), 1000);
}

TEST(ParallelForUntilDeadlineTest, SkipsEveryChunkThatStartsAfterTheDeadline) {
  // Every chunk outlasts the deadline, so each of the 4 threads runs at
  // most one chunk and the deadline read before its next one stops it.
  ScopedThreads threads(4);
  Budget budget = Budget::Deadline(0.1);
  const Budget wait = Budget::Deadline(0.1);
  std::atomic<int64_t> covered{0};
  const Status status = ParallelForUntilDeadline(
      640, 64, budget, "probe", [&](int64_t lo, int64_t hi) {
        while (!wait.DeadlineReached()) {
        }
        covered += hi - lo;
        return Status::Ok();
      });
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find("probe"), std::string::npos);
  EXPECT_GE(covered.load(), 64);
  EXPECT_LE(covered.load(), 4 * 64);
  // A deadline that has passed stops the loop before its first chunk.
  Budget expired = Budget::Deadline(0.0);
  bool ran = false;
  EXPECT_EQ(ParallelForUntilDeadline(1, 1, expired, "probe",
                                     [&](int64_t, int64_t) {
                                       ran = true;
                                       return Status::Ok();
                                     })
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(ran);
}

TEST(ParallelMapTest, ReturnsResultsInIndexOrder) {
  ScopedThreads threads(4);
  const std::vector<int64_t> squares =
      ParallelMap(100, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(UpperTriangleIndexTest, EnumeratesUpperTriangleRowByRow) {
  for (int64_t n : {1, 2, 3, 7, 50}) {
    int64_t t = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i; j < n; ++j, ++t) {
        const auto [a, b] = UpperTriangleIndex(t, n);
        EXPECT_EQ(a, i) << "t=" << t << " n=" << n;
        EXPECT_EQ(b, j) << "t=" << t << " n=" << n;
      }
    }
  }
}

TEST(RngForkTest, StreamsAreStableAndDistinct) {
  Rng a = Rng::Fork(42, 7);
  Rng b = Rng::Fork(42, 7);
  Rng c = Rng::Fork(42, 8);
  EXPECT_EQ(a(), b());
  Rng a2 = Rng::Fork(42, 7);
  EXPECT_NE(a2(), c());  // Adjacent streams decorrelate.
}

}  // namespace
}  // namespace x2vec
