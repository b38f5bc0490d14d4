#include "ml/neighbors.h"

#include <algorithm>
#include <limits>
#include <map>
#include <span>

#include "base/metrics.h"
#include "base/parallel.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"

namespace x2vec::ml {

void KnnClassifier::Fit(const linalg::Matrix& features,
                        const std::vector<int>& labels) {
  X2VEC_CHECK_EQ(features.rows(), static_cast<int>(labels.size()));
  X2VEC_CHECK_GT(features.rows(), 0) << "Fit needs at least one row";
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));
  features_ = features;
  labels_ = labels;
}

int KnnClassifier::Predict(std::span<const double> point) const {
  Scratch scratch;
  return Predict(point, scratch);
}

int KnnClassifier::Predict(std::span<const double> point,
                           Scratch& scratch) const {
  X2VEC_CHECK_GT(features_.rows(), 0) << "Fit before Predict";
  std::vector<std::pair<double, int>>& distances = scratch.distances;
  distances.clear();
  distances.reserve(features_.rows());
  for (int i = 0; i < features_.rows(); ++i) {
    distances.emplace_back(linalg::Distance2(features_.ConstRowSpan(i), point),
                           i);
  }
  // Fewer fitted rows than k means every row votes; sorting to k_ would
  // walk past the end of the buffer.
  const int voters = std::min<int>(k_, features_.rows());
  std::partial_sort(distances.begin(), distances.begin() + voters,
                    distances.end());
  std::map<int, int> votes;
  for (int i = 0; i < voters; ++i) ++votes[labels_[distances[i].second]];
  int best_label = votes.begin()->first;
  int best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best_label = label;
    }
  }
  return best_label;
}

std::vector<int> KnnClassifier::PredictAll(const linalg::Matrix& points) const {
  Scratch scratch;
  std::vector<int> out(points.rows());
  for (int i = 0; i < points.rows(); ++i) {
    out[i] = Predict(points.ConstRowSpan(i), scratch);
  }
  return out;
}

KMeansResult KMeans(const linalg::Matrix& features, int k, Rng& rng,
                    int max_iterations) {
  const int n = features.rows();
  const int d = features.cols();
  X2VEC_CHECK_GE(k, 1);
  X2VEC_CHECK_GE(n, k);
  X2VEC_METRIC_GAUGE("kernels.backend",
                     static_cast<double>(linalg::ActiveKernelBackend()));

  // The per-row work (the k-means++ distance update and the assign step)
  // runs in parallel over rows, each row written by one chunk. Every fold
  // over rows and every draw from `rng` stays serial in row order, so the
  // result is bit-identical at any thread count.
  const int64_t grain = (n + kAutoGrainChunks - 1) / kAutoGrainChunks;
  const int64_t chunks = (n + grain - 1) / grain;

  // k-means++ seeding. Distance2 (with its square root) followed by
  // squaring is how the historical code accumulated min_dist_sq; keeping
  // that exact call sequence keeps the seeding bit-identical.
  KMeansResult result;
  result.centroids = linalg::Matrix(k, d);
  std::vector<int> chosen;
  chosen.push_back(static_cast<int>(UniformInt(rng, 0, n - 1)));
  std::vector<double> min_dist_sq(n, std::numeric_limits<double>::infinity());
  while (static_cast<int>(chosen.size()) < k) {
    const std::span<const double> last = features.ConstRowSpan(chosen.back());
    const Status updated = ParallelFor(n, grain, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const double dist = linalg::Distance2(
            features.ConstRowSpan(static_cast<int>(i)), last);
        min_dist_sq[i] = std::min(min_dist_sq[i], dist * dist);
      }
      return Status::Ok();
    });
    X2VEC_CHECK(updated.ok()) << updated.ToString();
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += min_dist_sq[i];
    double pick = UniformReal(rng, 0.0, total);
    int next = n - 1;
    for (int i = 0; i < n; ++i) {
      pick -= min_dist_sq[i];
      if (pick <= 0.0) {
        next = i;
        break;
      }
    }
    chosen.push_back(next);
  }
  for (int c = 0; c < k; ++c) {
    linalg::Copy(features.ConstRowSpan(chosen[c]), result.centroids.RowSpan(c));
  }

  result.assignment.assign(n, -1);
  std::vector<char> moved(chunks);  // One flag per chunk.
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    // Assign.
    const Status assigned = ParallelFor(n, grain, [&](int64_t lo, int64_t hi) {
      bool chunk_moved = false;
      for (int64_t i = lo; i < hi; ++i) {
        const std::span<const double> row =
            features.ConstRowSpan(static_cast<int>(i));
        int best = 0;
        double best_dist =
            linalg::Distance2(row, result.centroids.ConstRowSpan(0));
        for (int c = 1; c < k; ++c) {
          const double dist =
              linalg::Distance2(row, result.centroids.ConstRowSpan(c));
          if (dist < best_dist) {
            best_dist = dist;
            best = c;
          }
        }
        if (result.assignment[i] != best) {
          result.assignment[i] = best;
          chunk_moved = true;
        }
      }
      moved[lo / grain] = chunk_moved;
      return Status::Ok();
    });
    X2VEC_CHECK(assigned.ok()) << assigned.ToString();
    result.iterations = iteration + 1;
    if (std::find(moved.begin(), moved.end(), 1) == moved.end()) break;
    // Update.
    linalg::Matrix sums(k, d);
    std::vector<int> counts(k, 0);
    for (int i = 0; i < n; ++i) {
      const int c = result.assignment[i];
      ++counts[c];
      linalg::Axpy(1.0, features.ConstRowSpan(i), sums.RowSpan(c));
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // Keep the old centroid.
      const std::span<const double> sum_row = sums.ConstRowSpan(c);
      const std::span<double> centroid = result.centroids.RowSpan(c);
      for (int j = 0; j < d; ++j) centroid[j] = sum_row[j] / counts[c];
    }
  }

  result.inertia = 0.0;
  for (int i = 0; i < n; ++i) {
    const double dist = linalg::Distance2(
        features.ConstRowSpan(i),
        result.centroids.ConstRowSpan(result.assignment[i]));
    result.inertia += dist * dist;
  }
  return result;
}

}  // namespace x2vec::ml
