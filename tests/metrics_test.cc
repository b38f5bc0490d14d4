// Observability-layer tests (ctest label: metrics): the base/metrics
// registry (sharded counters, gauges, fixed-bucket histograms, snapshots
// and deltas), base/trace spans and run reports, the per-method snapshot
// RunMethodSuite attaches to every MethodOutcome, and the contract that
// enabling or disabling metrics cannot change any computed result.

#include "base/metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/trace.h"
#include "corpus_training.h"
#include "core/registry.h"
#include "embed/corpus.h"
#include "embed/sgns.h"
#include "graph/graph.h"
#include "kernel/wl_kernel.h"
#include "linalg/matrix.h"

namespace x2vec {
namespace {

using metrics::Delta;
using metrics::GlobalSnapshot;
using metrics::Snapshot;

// Metrics are process-global and register lazily, so every test works on
// deltas around its own traffic rather than absolute values.

TEST(CounterTest, AddsFold) {
  metrics::Counter& counter = metrics::GetCounter("test.counter.basic");
  const int64_t before = counter.Value();
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.Value() - before, 7);
}

TEST(CounterTest, RegistryReturnsStableReferences) {
  metrics::Counter& a = metrics::GetCounter("test.counter.stable");
  metrics::Counter& b = metrics::GetCounter("test.counter.stable");
  EXPECT_EQ(&a, &b);
  // Registering more metrics must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    metrics::GetCounter("test.counter.filler" + std::to_string(i));
  }
  EXPECT_EQ(&metrics::GetCounter("test.counter.stable"), &a);
}

TEST(CounterTest, ShardedIncrementsFromWorkersFoldExactly) {
  metrics::Counter& counter = metrics::GetCounter("test.counter.sharded");
  const int64_t before = counter.Value();
  constexpr int64_t kItems = 10000;
  for (int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    const Status status = ParallelFor(kItems, 0, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) counter.Add(1);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok());
  }
  SetThreadCount(0);
  EXPECT_EQ(counter.Value() - before, 4 * kItems);
}

TEST(GaugeTest, LastWriteWins) {
  metrics::Gauge& gauge = metrics::GetGauge("test.gauge.basic");
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_EQ(gauge.Value(), -2.25);
}

TEST(HistogramTest, BucketsByUpperBoundWithOverflow) {
  metrics::Histogram& hist =
      metrics::GetHistogram("test.hist.buckets", {1.0, 2.0, 4.0});
  const std::vector<int64_t> before = hist.counts();
  ASSERT_EQ(before.size(), 4u);  // 3 bounds + overflow.
  hist.Observe(0.5);   // <= 1.0
  hist.Observe(1.0);   // <= 1.0 (bounds are inclusive)
  hist.Observe(3.0);   // <= 4.0
  hist.Observe(100.0); // overflow
  const std::vector<int64_t> after = hist.counts();
  EXPECT_EQ(after[0] - before[0], 2);
  EXPECT_EQ(after[1] - before[1], 0);
  EXPECT_EQ(after[2] - before[2], 1);
  EXPECT_EQ(after[3] - before[3], 1);
}

TEST(HistogramTest, BoundsAreFixedByFirstRegistration) {
  metrics::Histogram& first =
      metrics::GetHistogram("test.hist.fixed", {1.0, 2.0});
  metrics::Histogram& second =
      metrics::GetHistogram("test.hist.fixed", {42.0});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(SnapshotTest, DeltaIsolatesTrafficOfARegion) {
  const Snapshot before = GlobalSnapshot();
  metrics::GetCounter("test.snapshot.delta").Add(5);
  metrics::GetGauge("test.snapshot.gauge").Set(3.5);
  const Snapshot delta = Delta(before, GlobalSnapshot());
  EXPECT_EQ(delta.counter("test.snapshot.delta"), 5);
  EXPECT_EQ(delta.gauge("test.snapshot.gauge"), 3.5);
  // Absent names read as zero, and untouched counters are dropped.
  EXPECT_EQ(delta.counter("test.snapshot.never-registered"), 0);
  EXPECT_EQ(delta.counters.count("test.counter.basic"), 0u);
}

TEST(SnapshotTest, JsonHasTheDocumentedShape) {
  metrics::GetCounter("test.json.counter").Add(1);
  const std::string json = GlobalSnapshot().ToJson();
  EXPECT_EQ(json.find("{\"counters\":{"), 0u);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\":"), std::string::npos);
}

TEST(MetricMacroTest, RespectsTheRuntimeSwitch) {
  metrics::SetEnabled(true);
  const Snapshot before = GlobalSnapshot();
  X2VEC_METRIC_COUNT("test.macro.switch", 2);
  metrics::SetEnabled(false);
  X2VEC_METRIC_COUNT("test.macro.switch", 100);
  metrics::SetEnabled(true);
  const Snapshot delta = Delta(before, GlobalSnapshot());
  EXPECT_EQ(delta.counter("test.macro.switch"), 2);
}

TEST(TraceTest, SpansRecordNestingAndWork) {
  trace::Clear();
  trace::SetEnabled(true);
  {
    trace::Span outer("test.outer");
    outer.AddWork(10);
    {
      trace::Span inner("test.inner");
      inner.AddWork(7);
    }
  }
  trace::SetEnabled(false);
  const std::vector<trace::SpanRecord> spans = trace::Spans();
  ASSERT_EQ(spans.size(), 2u);  // Completion order: inner first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[0].work_units, 7);
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_EQ(spans[1].work_units, 10);
  EXPECT_GE(spans[1].duration_us, spans[0].duration_us);
  trace::Clear();
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  trace::Clear();
  trace::SetEnabled(false);
  { trace::Span span("test.disabled"); }
  EXPECT_TRUE(trace::Spans().empty());
}

TEST(TraceTest, RunReportIsMetricsPlusSpans) {
  trace::Clear();
  trace::SetEnabled(true);
  { trace::Span span("test.report"); }
  trace::SetEnabled(false);
  const std::string path = ::testing::TempDir() + "/x2vec_run_report.json";
  ASSERT_TRUE(trace::WriteRunReport(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string report = buffer.str();
  EXPECT_EQ(report.find("{\"metrics\":{\"counters\":{"), 0u);
  EXPECT_NE(report.find("\"spans\":[{\"name\":\"test.report\""),
            std::string::npos);
  std::remove(path.c_str());
  trace::Clear();
}

TEST(TraceTest, RunReportFailsCleanlyOnUnwritablePath) {
  EXPECT_FALSE(trace::WriteRunReport("/no/such/dir/report.json").ok());
}

TEST(MethodSuiteTest, EveryOutcomeCarriesItsMetricDelta) {
  const std::vector<graph::Graph> graphs = {graph::Graph::Cycle(5),
                                            graph::Graph::Path(6),
                                            graph::Graph::Complete(4)};
  core::GraphKernelMethod method{
      "wl-metrics-probe",
      [](const std::vector<graph::Graph>& gs, Rng&,
         Budget& budget) -> StatusOr<linalg::Matrix> {
        return kernel::WlSubtreeKernelMatrix(gs, 2, budget);
      }};
  const std::vector<core::MethodOutcome> outcomes =
      core::RunMethodSuite({method}, graphs, /*seed=*/7, BudgetSpec{});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok());
  // The WL kernel fills the full upper triangle: n*(n+1)/2 Gram entries.
  EXPECT_EQ(outcomes[0].metrics.counter("kernel.gram_entries"), 3 * 4 / 2);
  EXPECT_GT(outcomes[0].metrics.counter("wl.refinement_rounds"), 0);
  EXPECT_GE(outcomes[0].seconds, 0.0);
}

embed::Corpus MetricsToyCorpus() {
  std::vector<std::vector<std::string>> sentences;
  for (int s = 0; s < 12; ++s) {
    std::vector<std::string> sentence;
    for (int t = 0; t < 9; ++t) {
      sentence.push_back("w" + std::to_string((s * 5 + t * 2) % 11));
    }
    sentences.push_back(std::move(sentence));
  }
  return embed::Corpus::FromSentences(sentences);
}

TEST(MetricsDeterminismTest, DisablingMetricsDoesNotChangeTraining) {
  // The heart of the observability contract: instrumentation never feeds
  // back into algorithm state, so the trained model is bit-identical with
  // metrics on and off, sequential and sharded, at several thread counts.
  const embed::Corpus corpus = MetricsToyCorpus();
  embed::SgnsOptions options;
  options.dimension = 8;
  options.epochs = 2;

  metrics::SetEnabled(true);
  Rng rng_on = MakeRng(5);
  Budget unlimited;
  const embed::SgnsModel seq_on =
      *TrainSgnsOnCorpus(corpus, options, rng_on, unlimited);
  metrics::SetEnabled(false);
  Rng rng_off = MakeRng(5);
  const embed::SgnsModel seq_off =
      *TrainSgnsOnCorpus(corpus, options, rng_off, unlimited);
  metrics::SetEnabled(true);
  EXPECT_TRUE(seq_on.input.AllClose(seq_off.input, 0.0));
  EXPECT_TRUE(seq_on.output.AllClose(seq_off.output, 0.0));

  for (int threads : {1, 2, 4}) {
    SetThreadCount(threads);
    metrics::SetEnabled(true);
    Budget unlimited_on;
    const embed::SgnsModel sharded_on =
        *TrainSgnsShardedOnCorpus(corpus, options, 31, unlimited_on);
    metrics::SetEnabled(false);
    Budget unlimited_off;
    const embed::SgnsModel sharded_off =
        *TrainSgnsShardedOnCorpus(corpus, options, 31, unlimited_off);
    metrics::SetEnabled(true);
    EXPECT_TRUE(sharded_on.input.AllClose(sharded_off.input, 0.0)) << threads;
    EXPECT_TRUE(sharded_on.output.AllClose(sharded_off.output, 0.0))
        << threads;
  }
  SetThreadCount(0);
}

}  // namespace
}  // namespace x2vec
