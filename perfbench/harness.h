#pragma once

// Shared plumbing of the x2vec benchmark: command-line options, the result
// report (metrics, ops attempted/failed, correctness checks), timing and
// memory helpers, and the per-layer probes. Workloads live in training.cc
// and serving.cc; main.cc dispatches. See perfbench/README.md for what each
// metric means and which layer and workload it belongs to.

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace perfbench {

/// Parsed command line. `toy` shrinks every input to smoke-test size.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;
  /// Directory the benchmark may write into (checkpoints); removed after
  /// use.
  std::string scratch_dir = ".bench_build/scratch";
  /// Worker threads for every parallel call: min(4, hardware threads).
  int threads = 1;
};

/// Everything one run prints: named metrics with units, the op tally and
/// the outcome of every correctness check. A failed check is a failed op.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Run metadata (machine, build, workload shape); printed before the
  /// result line, never inside it.
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);
  /// Counts `attempted` ops of which `failed` failed.
  void Ops(int64_t attempted, int64_t failed);
  /// One correctness check; prints its outcome to stderr.
  void Check(const std::string& name, bool ok, const std::string& detail);

  [[nodiscard]] bool correct() const { return failed_ == 0; }
  /// {"meta": {...}} on one line.
  [[nodiscard]] std::string MetaJson() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string ResultJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> meta_;  // Rendered JSON.
  std::map<std::string, std::pair<double, std::string>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Monotonic seconds since an arbitrary epoch.
double Now();

/// Nearest-rank quantile, q in [0, 1]. 0 for an empty list.
double Quantile(std::vector<double> values, double q);

/// The fast end of a series of timings taken across a run: the 2nd
/// percentile (nearest rank) when lower is better, the 98th when higher is
/// better, so a series of fewer than fifty gives its best value. On a shared
/// host a CPU runs at about half speed for 50-200 ms stretches whenever its
/// hyperthread sibling is busy, and how much of a run falls into such
/// stretches changes from run to run, at times to most of it; the fast end
/// measures the code rather than the neighbours.
double FastEnd(const std::vector<double>& values, bool lower_is_better);

/// FastEnd over consecutive windows of at least `window` samples of each
/// window's q-quantile (one window when there are fewer samples).
double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window);

/// Peak resident set (VmHWM) in MiB; -1 when /proc is unavailable.
double PeakRssMb();

/// Resets VmHWM to the current RSS so the next PeakRssMb() covers only
/// what runs after this call. False when the kernel refuses.
bool ResetPeakRss();

/// FNV-1a over the IEEE bit patterns of every entry: equal digests mean
/// bit-identical matrices.
uint64_t Digest(const x2vec::linalg::Matrix& m);

/// True when every entry is finite and the matrix is non-empty.
bool AllFinite(const x2vec::linalg::Matrix& m);

/// MiB of a rows x cols double matrix.
double MatrixMb(int64_t rows, int64_t cols);

/// Moves the calling thread to the next CPU it may run on at each Next(),
/// and restores its affinity on destruction. On a shared host one CPU can
/// run at half the speed of the others for seconds at a time; a
/// single-thread timing taken across a rotation averages over the CPUs
/// instead of depending on the one the scheduler happened to pick. A no-op
/// where thread affinity is unavailable.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Runs `setup` at least `min_reps` times and until `min_seconds` have
/// passed (at most `max_reps`), each repetition on the next CPU, returning
/// each repetition's seconds; setup_s is their FastEnd.
template <typename Fn>
std::vector<double> RepeatSetup(Fn&& setup, int min_reps, double min_seconds,
                                int max_reps) {
  CpuRotation rotation;
  std::vector<double> times;
  const double start = Now();
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps ||
          Now() - start < min_seconds)) {
    rotation.Next();
    const double t0 = Now();
    setup();
    times.push_back(Now() - t0);
  }
  return times;
}

/// ---- Layer microprobes (traced mode). Each returns a per-call cost.

/// Nanoseconds per Rng::Fork plus one draw.
double ProbeForkNs();

/// Microseconds per ParallelFor over 32 empty items at the current thread
/// count: the trainer's per-batch dispatch.
double ProbeDispatchUs();

/// Nanoseconds per linalg::SgdPairUpdateDelta at `dim`.
double ProbeSgdPairNs(int dim, uint64_t seed);

/// Nanoseconds per linalg::Dot at `dim`.
double ProbeDotNs(int dim, uint64_t seed);

/// Records the probes at the given dimensions into `report`.
void RecordProbes(Report& report, int train_dim, int serve_dim,
                  uint64_t seed);

/// Static run metadata: thread counts, seed, ISA, kernel backend, build.
void RecordRunMeta(Report& report, const Options& options);

}  // namespace perfbench
