#pragma once

// The benchmark's four workloads and the serving phase they share. Each
// Run* function sets up its inputs from options.seed, measures for
// options.seconds, checks its outputs and fills `report` with either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).

#include <vector>

#include "harness.h"
#include "linalg/matrix.h"
#include "serve/engine.h"

namespace perfbench {

void RunDeepWalkStream(const Options& options, Report& report);
void RunNode2VecCkpt(const Options& options, Report& report);
void RunGraph2VecWl(const Options& options, Report& report);
void RunServeIvf(const Options& options, Report& report);

/// Shape of a serving phase: the index and the request batch.
struct ServeSpec {
  /// Cluster-pruned (k-means cells) when set, exact scan otherwise.
  bool pruned = false;
  int clusters = 0;
  int probes = 0;
  int kmeans_iterations = 10;
  int requests = 2048;
  int k = 10;
};

/// Cosine engine over `table` with the index `spec` names.
x2vec::StatusOr<x2vec::serve::QueryEngine> BuildEngine(
    const x2vec::linalg::Matrix& table, const ServeSpec& spec, uint64_t seed);

/// Untraced serving measurement over a built engine, taken in slices so
/// its samples can spread over a whole run. Each Run() serves ServeAll
/// batches for half its time (at least one batch) and single-caller
/// closed-loop Serve requests for the other half (at least one request).
class ServingMeter {
 public:
  ServingMeter(const x2vec::serve::QueryEngine& engine, const ServeSpec& spec,
               uint64_t seed);

  void Run(double seconds);

  /// Checks every answer, that ServeAll equals Serve on every request, and
  /// scores recall@k against an exact-scan oracle (untimed). Records
  /// serve_qps, serve_p50_us, serve_p99_us and recall_at_10, and returns
  /// the answers (tokens) ServeAll returned per second.
  double Finish(const x2vec::linalg::Matrix& table, Report& report);

 private:
  const x2vec::serve::QueryEngine& engine_;
  std::vector<x2vec::serve::ServeRequest> requests_;
  std::vector<x2vec::serve::ServeOutcome> first_batch_;
  std::vector<double> batch_qps_;
  std::vector<double> batch_answers_per_s_;
  std::vector<double> latency_us_;
  int64_t served_ = 0;  // Single-caller requests so far.
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
};

/// Traced serving breakdown: direct index TopK latency and scan work,
/// engine overhead over TopK, and index build time over `table`. Records
/// the index.* and engine.* per-layer metrics.
void TraceServing(const x2vec::linalg::Matrix& table, const ServeSpec& spec,
                  uint64_t seed, double seconds, Report& report);

/// Records every per-layer metric as 0, so traced runs emit the full set;
/// measured layers overwrite theirs.
void ZeroPerLayer(Report& report);

}  // namespace perfbench
