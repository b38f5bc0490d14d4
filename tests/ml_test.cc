#include <cmath>
#include <set>
#include <vector>

#include "base/rng.h"
#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/neighbors.h"
#include "ml/pca.h"
#include "ml/svm.h"
#include "ml/validation.h"

namespace x2vec::ml {
namespace {

// Two Gaussian blobs in 2D, labels 0/1.
linalg::Matrix TwoBlobs(int per_class, double separation, Rng& rng,
                        std::vector<int>* labels) {
  linalg::Matrix features(2 * per_class, 2);
  labels->assign(2 * per_class, 0);
  for (int i = 0; i < 2 * per_class; ++i) {
    const int label = i < per_class ? 0 : 1;
    (*labels)[i] = label;
    const double center = label == 0 ? -separation / 2 : separation / 2;
    features(i, 0) = center + Gaussian(rng) * 0.5;
    features(i, 1) = Gaussian(rng) * 0.5;
  }
  return features;
}

linalg::Matrix LinearGram(const linalg::Matrix& features) {
  return features * features.Transposed();
}

TEST(MetricsTest, AccuracyAndF1) {
  const std::vector<int> predicted = {0, 1, 1, 0};
  const std::vector<int> actual = {0, 1, 0, 0};
  EXPECT_DOUBLE_EQ(Accuracy(predicted, actual), 0.75);
  // Class 0: precision 2/2... predicted 0 at {0,3}: both actual 0 -> p=1,
  // recall 2/3. Class 1: precision 1/2, recall 1/1.
  const double f1_class0 = 2.0 * 1.0 * (2.0 / 3) / (1.0 + 2.0 / 3);
  const double f1_class1 = 2.0 * 0.5 * 1.0 / (0.5 + 1.0);
  EXPECT_NEAR(MacroF1(predicted, actual), (f1_class0 + f1_class1) / 2, 1e-12);
}

TEST(MetricsTest, RankingMetrics) {
  const std::vector<int> ranks = {1, 2, 4, 10};
  EXPECT_DOUBLE_EQ(MeanReciprocalRank(ranks),
                   (1.0 + 0.5 + 0.25 + 0.1) / 4.0);
  EXPECT_DOUBLE_EQ(HitsAtK(ranks, 3), 0.5);
  EXPECT_DOUBLE_EQ(HitsAtK(ranks, 10), 1.0);
}

TEST(ValidationTest, SplitSizes) {
  Rng rng = MakeRng(21);
  const Split split = TrainTestSplit(10, 0.3, rng);
  EXPECT_EQ(split.test.size(), 3u);
  EXPECT_EQ(split.train.size(), 7u);
  std::set<int> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 10u);
}

TEST(ValidationTest, StratifiedFoldsPreserveClassBalance) {
  Rng rng = MakeRng(22);
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) labels.push_back(i < 20 ? 0 : 1);
  const std::vector<Split> folds = StratifiedKFold(labels, 5, rng);
  EXPECT_EQ(folds.size(), 5u);
  for (const Split& fold : folds) {
    EXPECT_EQ(fold.test.size(), 6u);
    int zeros = 0;
    for (int i : fold.test) zeros += labels[i] == 0 ? 1 : 0;
    EXPECT_EQ(zeros, 4);  // 20/30 of 6.
  }
}

TEST(SvmTest, SeparableBlobsBinary) {
  Rng rng = MakeRng(23);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(15, 6.0, rng, &labels);
  std::vector<double> signed_labels(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    signed_labels[i] = labels[i] == 0 ? -1.0 : 1.0;
  }
  KernelSvm svm;
  svm.Fit(LinearGram(features), signed_labels, SvmOptions{}, rng);
  int correct = 0;
  const linalg::Matrix gram = LinearGram(features);
  for (int i = 0; i < features.rows(); ++i) {
    const double decision = svm.Decision(gram.Row(i));
    correct += (decision > 0) == (signed_labels[i] > 0) ? 1 : 0;
  }
  EXPECT_GE(correct, 29);
}

TEST(SvmTest, OneVsRestThreeClasses) {
  Rng rng = MakeRng(24);
  const int per_class = 12;
  linalg::Matrix features(3 * per_class, 2);
  std::vector<int> labels(3 * per_class);
  const double centers[3][2] = {{0, 5}, {-5, -3}, {5, -3}};
  for (int i = 0; i < 3 * per_class; ++i) {
    const int c = i / per_class;
    labels[i] = c;
    features(i, 0) = centers[c][0] + Gaussian(rng) * 0.6;
    features(i, 1) = centers[c][1] + Gaussian(rng) * 0.6;
  }
  OneVsRestSvm svm;
  const linalg::Matrix gram = LinearGram(features);
  svm.Fit(gram, labels, SvmOptions{}, rng);
  const std::vector<int> predictions = svm.Predict(gram);
  EXPECT_GT(Accuracy(predictions, labels), 0.9);
}

TEST(SvmTest, CrossValidatedAccuracyOnSeparableData) {
  Rng rng = MakeRng(25);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(20, 8.0, rng, &labels);
  const double accuracy = CrossValidatedSvmAccuracy(
      LinearGram(features), labels, 4, SvmOptions{}, rng);
  EXPECT_GT(accuracy, 0.9);
}

TEST(KnnTest, MajorityVote) {
  linalg::Matrix features = {{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {5, 5.1}};
  KnnClassifier knn(3);
  knn.Fit(features, {0, 0, 1, 1, 1});
  EXPECT_EQ(knn.Predict({5.05, 5.0}), 1);
  EXPECT_EQ(knn.Predict({0.05, 0.0}), 0);
}

TEST(KnnTest, KLargerThanFittedRowsVotesOverWhatExists) {
  // Regression: Predict used to partial_sort to scratch.begin() + k with no
  // guard, walking past the end of the distance buffer whenever k exceeded
  // the fitted row count (UB). Now every fitted row votes.
  linalg::Matrix features = {{0, 0}, {10, 10}};
  KnnClassifier knn(5);
  knn.Fit(features, {0, 1});
  // Both rows vote; ties resolve to the smallest label, so the nearer row
  // only decides the vote when k covers a strict majority of one class.
  EXPECT_EQ(knn.Predict({0.1, 0.1}), 0);
  EXPECT_EQ(knn.Predict({9.9, 9.9}), 0);  // 1 vote each; tie -> label 0.

  // One-row classifier: k=5 over a single fitted row is that row's label.
  linalg::Matrix one = {{3.0, 4.0}};
  KnnClassifier single(5);
  single.Fit(one, {7});
  EXPECT_EQ(single.Predict({0.0, 0.0}), 7);
}

TEST(KnnTest, ExplicitScratchMatchesConvenienceOverload) {
  Rng rng = MakeRng(41);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(20, 5.0, rng, &labels);
  KnnClassifier knn(3);
  knn.Fit(features, labels);
  KnnClassifier::Scratch scratch;
  for (int i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(knn.Predict(features.ConstRowSpan(i), scratch),
              knn.Predict(features.ConstRowSpan(i)));
  }
}

TEST(KnnTest, BlobsAccuracy) {
  Rng rng = MakeRng(26);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(20, 5.0, rng, &labels);
  KnnClassifier knn(5);
  knn.Fit(features, labels);
  EXPECT_GT(Accuracy(knn.PredictAll(features), labels), 0.9);
}

TEST(KMeansTest, RecoversSeparatedClusters) {
  Rng rng = MakeRng(27);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(25, 10.0, rng, &labels);
  const KMeansResult result = KMeans(features, 2, rng);
  // Cluster ids may be swapped; check purity.
  int agreement = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    agreement += result.assignment[i] == labels[i] ? 1 : 0;
  }
  const int purity = std::max<int>(agreement,
                                   static_cast<int>(labels.size()) - agreement);
  EXPECT_GE(purity, 48);
  EXPECT_GT(result.iterations, 0);
}

TEST(PcaTest, FirstComponentAlignsWithSpread) {
  // Data spread mostly along the x-axis.
  Rng rng = MakeRng(28);
  linalg::Matrix features(60, 2);
  for (int i = 0; i < 60; ++i) {
    features(i, 0) = Gaussian(rng) * 5.0;
    features(i, 1) = Gaussian(rng) * 0.3;
  }
  // Kernel PCA on the linear Gram gives PCA's scores: mean-zero columns.
  const linalg::Matrix scores = KernelPca(LinearGram(features), 2);
  std::vector<double> variance(2, 0.0);
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 2; ++j) variance[j] += scores(i, j) * scores(i, j);
  }
  EXPECT_GT(variance[0], variance[1] * 10);
  // The first component is ~ the x-axis: its scores track centred x.
  double mean_x = 0.0;
  for (int i = 0; i < 60; ++i) mean_x += features(i, 0) / 60;
  double dot = 0.0;
  double norm_x = 0.0;
  for (int i = 0; i < 60; ++i) {
    dot += scores(i, 0) * (features(i, 0) - mean_x);
    norm_x += (features(i, 0) - mean_x) * (features(i, 0) - mean_x);
  }
  EXPECT_GT(std::abs(dot) / std::sqrt(variance[0] * norm_x), 0.95);
}

TEST(PcaTest, KernelPcaSeparatesBlobs) {
  Rng rng = MakeRng(29);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(15, 8.0, rng, &labels);
  const linalg::Matrix scores = KernelPca(LinearGram(features), 2);
  // 1D separation along the first kernel principal component.
  double mean0 = 0.0;
  double mean1 = 0.0;
  for (int i = 0; i < scores.rows(); ++i) {
    (labels[i] == 0 ? mean0 : mean1) += scores(i, 0) / 15.0;
  }
  EXPECT_GT(std::abs(mean0 - mean1), 3.0);
}

TEST(LogisticTest, SeparableBlobs) {
  Rng rng = MakeRng(30);
  std::vector<int> labels;
  const linalg::Matrix features = TwoBlobs(20, 6.0, rng, &labels);
  LogisticRegression model;
  model.Fit(features, labels, LogisticRegression::Options{}, rng);
  EXPECT_GT(Accuracy(model.Predict(features), labels), 0.95);
  const linalg::Matrix probs = model.PredictProba(features);
  for (int i = 0; i < probs.rows(); ++i) {
    EXPECT_NEAR(probs(i, 0) + probs(i, 1), 1.0, 1e-9);
  }
}

TEST(LogisticTest, ThreeClasses) {
  Rng rng = MakeRng(31);
  linalg::Matrix features(30, 1);
  std::vector<int> labels(30);
  for (int i = 0; i < 30; ++i) {
    labels[i] = i / 10;
    features(i, 0) = labels[i] * 10.0 + Gaussian(rng);
  }
  LogisticRegression model;
  LogisticRegression::Options options;
  options.epochs = 300;
  model.Fit(features, labels, options, rng);
  EXPECT_GT(Accuracy(model.Predict(features), labels), 0.9);
}

}  // namespace
}  // namespace x2vec::ml
