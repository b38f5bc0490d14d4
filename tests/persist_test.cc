// Crash-safety suite for the durable-I/O layer (base/fs) and the
// checkpoint/resume subsystem (embed/checkpoint, kg/persist); ctest label:
// persist.
//
// The resume tests pin the central contract against the golden digests of
// tests/goldens.h: a training run killed mid-epoch (simulated with a
// finite work-unit Budget) and resumed from its newest intact checkpoint
// must finish bit-identical to the uninterrupted run, at 1 and 4 threads.
// The fault-injection tests script torn writes, short reads, bit flips,
// ENOSPC and rename failures through FaultInjectingFs and require every
// one to be either retried, detected by a checksum, or surfaced as a typed
// Status — never a crash, a hang or a silently wrong model.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/budget.h"
#include "base/fs.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/rng.h"
#include "base/status.h"
#include "corpus_training.h"
#include "goldens.h"
#include "kg/datasets.h"
#include "embed/checkpoint.h"
#include "embed/corpus.h"
#include "embed/sgns.h"
#include "kg/knowledge_graph.h"
#include "kg/persist.h"
#include "kg/rescal.h"
#include "kg/transe.h"
#include "linalg/matrix.h"

namespace x2vec {
namespace {

using embed::CheckpointData;
using embed::CheckpointKind;
using embed::CheckpointSection;
using linalg::Matrix;

/// A file's bytes, to digest; empty (never a pinned file) when unreadable.
std::string FileBytes(const std::string& path) {
  const StatusOr<std::string> bytes = DefaultFs().ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? *bytes : std::string();
}

// ---- Scratch directories ----------------------------------------------------

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/x2vec_persist_" + name;
  EXPECT_TRUE(DefaultFs().RemoveTree(dir).ok());
  return dir;
}

// ---- base/fs: durable writes and bounded reads ------------------------------

TEST(FsTest, WriteReadRoundTripAndOverwrite) {
  const std::string dir = ScratchDir("fs_roundtrip");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const std::string path = dir + "/file.txt";

  ASSERT_TRUE(DefaultFs().WriteFileAtomic(path, "first").ok());
  StatusOr<std::string> read = DefaultFs().ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "first");

  // Overwrite replaces the whole file and leaves no temp staging file.
  ASSERT_TRUE(DefaultFs().WriteFileAtomic(path, "second").ok());
  read = DefaultFs().ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  StatusOr<std::vector<std::string>> names = DefaultFs().ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"file.txt"});
}

TEST(FsTest, MissingFileIsNotFoundAndMissingDirListIsNotFound) {
  const std::string dir = ScratchDir("fs_missing");
  const StatusOr<std::string> read = DefaultFs().ReadFile(dir + "/nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  const StatusOr<std::vector<std::string>> names = DefaultFs().ListDir(dir);
  ASSERT_FALSE(names.ok());
  EXPECT_EQ(names.status().code(), StatusCode::kNotFound);
}

TEST(FsTest, OversizedReadIsTypedIoErrorNamingThePath) {
  const std::string dir = ScratchDir("fs_cap");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const std::string path = dir + "/big.bin";
  ASSERT_TRUE(
      DefaultFs().WriteFileAtomic(path, std::string(128, 'x')).ok());
  const StatusOr<std::string> read =
      DefaultFs().ReadFile(path, /*max_bytes=*/16);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find(path), std::string::npos);
}

TEST(FsTest, CreateDirsIsRecursiveAndIdempotent) {
  const std::string dir = ScratchDir("fs_mkdirs") + "/a/b/c";
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  EXPECT_TRUE(DefaultFs().Exists(dir));
}

// ---- base/fs: injected faults -----------------------------------------------

TEST(FsFaultTest, EnospcSurfacesIoErrorAndLeavesNoFile) {
  const std::string dir = ScratchDir("fault_enospc");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  FsFaultPlan plan;
  plan.enospc_write_at = 0;
  FaultInjectingFs fs(plan);
  const Status status = fs.WriteFileAtomic(dir + "/out.bin", "payload");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(fs.Exists(dir + "/out.bin"));
  EXPECT_EQ(fs.faults_injected(), 1);
}

TEST(FsFaultTest, RenameFailureLeavesOldContentIntact) {
  const std::string dir = ScratchDir("fault_rename");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const std::string path = dir + "/out.bin";
  ASSERT_TRUE(DefaultFs().WriteFileAtomic(path, "old").ok());
  FsFaultPlan plan;
  plan.rename_fail_at = 0;
  FaultInjectingFs fs(plan);
  const Status status = fs.WriteFileAtomic(path, "new");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // The destination still holds the previous complete content.
  const StatusOr<std::string> read = DefaultFs().ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "old");
}

TEST(FsFaultTest, TransientReadsRetryThenSucceed) {
  const std::string dir = ScratchDir("fault_retry");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const std::string path = dir + "/flaky.bin";
  ASSERT_TRUE(DefaultFs().WriteFileAtomic(path, "eventually").ok());
  FsFaultPlan plan;
  plan.transient_read_failures = 2;
  FaultInjectingFs fs(plan);
  ReadRetryPolicy policy;
  policy.attempts = 3;
  const StatusOr<std::string> read = ReadFileWithRetry(fs, path, policy);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "eventually");
  EXPECT_EQ(fs.reads(), 3);
  EXPECT_EQ(fs.faults_injected(), 2);
}

TEST(FsFaultTest, ExhaustedRetriesSurfaceTheLastIoError) {
  const std::string dir = ScratchDir("fault_retry_exhausted");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const std::string path = dir + "/flaky.bin";
  ASSERT_TRUE(DefaultFs().WriteFileAtomic(path, "never").ok());
  FsFaultPlan plan;
  plan.transient_read_failures = 5;
  FaultInjectingFs fs(plan);
  ReadRetryPolicy policy;
  policy.attempts = 3;
  const StatusOr<std::string> read = ReadFileWithRetry(fs, path, policy);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_EQ(fs.reads(), 3);
}

TEST(FsFaultTest, NotFoundIsNeverRetried) {
  const std::string dir = ScratchDir("fault_notfound");
  FaultInjectingFs fs(FsFaultPlan{});
  const StatusOr<std::string> read =
      ReadFileWithRetry(fs, dir + "/absent", ReadRetryPolicy{});
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fs.reads(), 1);  // a definitive answer, not a transient fault
}

// ---- Checkpoint container: format and corruption detection ------------------

CheckpointData SampleData() {
  CheckpointData data;
  data.kind = CheckpointKind::kSgnsSequential;
  data.fingerprint = 0xfeedface12345678ull;  // x2vec-lint: allow(golden-literal)
  embed::PayloadWriter model;
  model.PutMatrix(Matrix::Random(3, 4, 1.0, /*seed=*/1));
  data.sections.push_back({"model", model.Take()});
  embed::PayloadWriter trainer;
  trainer.PutI64(2);
  trainer.PutDouble(0.5);
  trainer.PutString("engine-state");
  data.sections.push_back({"trainer", trainer.Take()});
  return data;
}

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip) {
  const CheckpointData data = SampleData();
  const StatusOr<CheckpointData> decoded =
      embed::DecodeCheckpoint(embed::EncodeCheckpoint(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, data.kind);
  EXPECT_EQ(decoded->fingerprint, data.fingerprint);
  ASSERT_EQ(decoded->sections.size(), 2u);
  ASSERT_NE(decoded->Find("trainer"), nullptr);
  embed::PayloadReader reader(decoded->Find("trainer")->payload);
  EXPECT_EQ(reader.GetI64(), 2);
  EXPECT_EQ(reader.GetDouble(), 0.5);
  EXPECT_EQ(reader.GetString(), "engine-state");
  reader.ExpectEnd();
  EXPECT_TRUE(reader.status().ok());
}

TEST(CheckpointFormatTest, TruncationBitFlipAndBadMagicAreCorrupted) {
  const std::string bytes = embed::EncodeCheckpoint(SampleData());

  // Truncation at any tail length must fail the whole-file checksum.
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{4}}) {
    const StatusOr<CheckpointData> decoded =
        embed::DecodeCheckpoint(bytes.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "kept " << keep;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptedData);
  }

  // A single flipped bit anywhere must be caught.
  for (size_t at : {size_t{3}, bytes.size() / 2, bytes.size() - 2}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    const StatusOr<CheckpointData> decoded = embed::DecodeCheckpoint(flipped);
    ASSERT_FALSE(decoded.ok()) << "flipped byte " << at;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptedData);
  }

  const StatusOr<CheckpointData> decoded =
      embed::DecodeCheckpoint("not a checkpoint at all");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruptedData);
}

TEST(CheckpointFormatTest, PayloadReaderReportsStickyOffset) {
  embed::PayloadWriter writer;
  writer.PutU32(7);
  const std::string payload = writer.Take();
  embed::PayloadReader reader(payload);
  EXPECT_EQ(reader.GetU32(), 7u);
  (void)reader.GetU64();  // runs off the end: records the sticky error
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);
  (void)reader.GetString();  // later getters stay on the first error
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruptedData);

  // A matrix header past INT_MAX rows or columns fails too, even with the
  // other extent 0, where it claims no entries the payload lacks.
  for (const auto& [rows, cols] :
       {std::pair{1u << 31, 0u}, std::pair{0u, 1u << 31}}) {
    embed::PayloadWriter header;
    header.PutU32(rows);
    header.PutU32(cols);
    const std::string bytes = header.Take();
    embed::PayloadReader matrix_reader(bytes);
    (void)matrix_reader.GetMatrix();
    EXPECT_EQ(matrix_reader.status().code(), StatusCode::kCorruptedData)
        << rows << "x" << cols;
    matrix_reader.ExpectEnd();  // stays on the first error
    EXPECT_NE(matrix_reader.status().message().find("INT_MAX"),
              std::string::npos)
        << matrix_reader.status().ToString();
  }
}

TEST(CheckpointTest, SaveKeepsOnlyTheNewestKeepLast) {
  embed::CheckpointOptions options;
  options.dir = ScratchDir("ckpt_gc");
  options.keep_last = 2;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE(embed::SaveCheckpoint(options, epoch, SampleData()).ok());
  }
  const StatusOr<std::vector<std::string>> names =
      DefaultFs().ListDir(options.dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"ckpt.e000004.x2v",
                                              "ckpt.e000005.x2v"}));
}

TEST(CheckpointTest, LoadLatestSkipsCorruptAndFallsBackToOlderIntact) {
  embed::CheckpointOptions options;
  options.dir = ScratchDir("ckpt_fallback");
  CheckpointData old_data = SampleData();
  old_data.fingerprint = 42;
  ASSERT_TRUE(embed::SaveCheckpoint(options, 1, old_data).ok());
  ASSERT_TRUE(embed::SaveCheckpoint(options, 2, old_data).ok());
  // Corrupt the newest file in place (truncate it) behind the manager's
  // back; the loader must skip it and return the older intact one.
  const std::string newest = options.dir + "/" + embed::CheckpointFileName(2);
  StatusOr<std::string> bytes = DefaultFs().ReadFile(newest);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      DefaultFs()
          .WriteFileAtomic(newest, bytes->substr(0, bytes->size() / 2))
          .ok());

  const metrics::Snapshot before = metrics::GlobalSnapshot();
  const StatusOr<std::optional<CheckpointData>> loaded =
      embed::LoadLatestCheckpoint(options, CheckpointKind::kSgnsSequential,
                                  /*fingerprint=*/42);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_value());
  EXPECT_EQ((*loaded)->fingerprint, 42u);
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.corrupt_skipped"), 1);
}

TEST(CheckpointTest, MismatchedKindOrFingerprintIsAFreshStart) {
  embed::CheckpointOptions options;
  options.dir = ScratchDir("ckpt_mismatch");
  CheckpointData data = SampleData();
  data.fingerprint = 42;
  ASSERT_TRUE(embed::SaveCheckpoint(options, 1, data).ok());

  StatusOr<std::optional<CheckpointData>> loaded = embed::LoadLatestCheckpoint(
      options, CheckpointKind::kSgnsSequential, /*fingerprint=*/43);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_value());

  loaded = embed::LoadLatestCheckpoint(options, CheckpointKind::kTransE,
                                       /*fingerprint=*/42);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_value());

  // A missing directory is also a fresh start, never an error.
  options.dir = ScratchDir("ckpt_missing_dir");
  loaded = embed::LoadLatestCheckpoint(options, CheckpointKind::kSgnsSequential,
                                       /*fingerprint=*/42);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_value());
}

// ---- Kill + resume = uninterrupted, against the golden digests --------------

TEST(ResumeTest, SgnsSequentialResumeIsBitIdenticalToGolden) {
  embed::SgnsOptions options = GoldenSgnsOptions();
  options.checkpoint.dir = ScratchDir("resume_sgns_seq");

  // "Kill" the run mid-epoch 2 (after the epoch-1 barrier checkpoint).
  {
    const embed::Corpus corpus = GoldenCorpus();
    Rng rng = MakeRng(7);
    Budget budget = Budget::WorkUnits(kSgnsPairsPerEpoch + 500);
    const StatusOr<embed::SgnsModel> killed =
        TrainSgnsOnCorpus(corpus, options, rng, budget);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  }
  ExpectGolden("checkpoint/sgns-sequential-epoch1",
               Digest(FileBytes(options.checkpoint.dir + "/" +
                                embed::CheckpointFileName(1))));

  const metrics::Snapshot before = metrics::GlobalSnapshot();
  const embed::Corpus corpus = GoldenCorpus();
  Rng rng = MakeRng(7);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainSgnsOnCorpus(corpus, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("sgns/sequential/input", Digest(model->input));
  ExpectGolden("sgns/sequential/output", Digest(model->output));
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.resumes"), 1);
}

TEST(ResumeTest, SgnsShardedResumeIsBitIdenticalAtOneAndFourThreads) {
  const embed::Corpus corpus = GoldenCorpus();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    embed::SgnsOptions options = GoldenSgnsOptions();
    options.checkpoint.dir =
        ScratchDir("resume_sgns_sharded_t" + std::to_string(threads));

    Budget finite = Budget::WorkUnits(kSgnsPairsPerEpoch + 500);
    const StatusOr<embed::SgnsModel> killed =
        TrainSgnsShardedOnCorpus(corpus, options, /*seed=*/7, finite);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    ExpectGolden("checkpoint/sgns-sharded-epoch1",
                 Digest(FileBytes(options.checkpoint.dir + "/" +
                                  embed::CheckpointFileName(1))));

    Budget unlimited;
    const StatusOr<embed::SgnsModel> model =
        TrainSgnsShardedOnCorpus(corpus, options, /*seed=*/7, unlimited);
    ASSERT_TRUE(model.ok());
    ExpectGolden("sgns/sharded/input", Digest(model->input));
    ExpectGolden("sgns/sharded/output", Digest(model->output));
  }
  SetThreadCount(0);
}

TEST(ResumeTest, PvDbowSequentialResumeWithSparserBarriers) {
  std::vector<std::vector<int>> documents = GoldenDocuments();
  embed::SgnsOptions options = GoldenSgnsOptions();
  options.checkpoint.dir = ScratchDir("resume_pvdbow_seq");
  options.checkpoint.every_n_epochs = 2;  // barrier after epoch 2 only

  {
    Rng rng = MakeRng(9);
    Budget budget = Budget::WorkUnits(2 * kPvDbowPairsPerEpoch + 100);
    const StatusOr<embed::SgnsModel> killed =
        TrainPvDbowOnDocuments(documents, 40, options, rng, budget);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  }
  // Exactly one barrier fired before the kill.
  const StatusOr<std::vector<std::string>> names =
      DefaultFs().ListDir(options.checkpoint.dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"ckpt.e000002.x2v"});

  Rng rng = MakeRng(9);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainPvDbowOnDocuments(documents, 40, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("pvdbow/sequential/input", Digest(model->input));
}

TEST(ResumeTest, PvDbowShardedResumeIsBitIdenticalAtOneAndFourThreads) {
  const std::vector<std::vector<int>> documents = GoldenDocuments();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    SetThreadCount(threads);
    embed::SgnsOptions options = GoldenSgnsOptions();
    options.checkpoint.dir =
        ScratchDir("resume_pvdbow_sharded_t" + std::to_string(threads));

    Budget finite = Budget::WorkUnits(kPvDbowPairsPerEpoch + 100);
    const StatusOr<embed::SgnsModel> killed = TrainPvDbowShardedOnDocuments(
        documents, 40, options, /*seed=*/11, finite);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);

    Budget unlimited;
    const StatusOr<embed::SgnsModel> model = TrainPvDbowShardedOnDocuments(
        documents, 40, options, /*seed=*/11, unlimited);
    ASSERT_TRUE(model.ok());
    ExpectGolden("pvdbow/sharded/input", Digest(model->input));
  }
  SetThreadCount(0);
}

TEST(ResumeTest, TornCheckpointFallsBackToOlderBarrierAndStillMatchesGolden) {
  // The epoch-2 checkpoint is torn on disk (write succeeds, bytes are a
  // prefix); the resume run must detect it, fall back to the intact
  // epoch-1 file, replay epochs 2 and 3 and still match the golden model.
  FsFaultPlan plan;
  plan.torn_write_at = 1;  // second checkpoint save
  FaultInjectingFs faulty(plan);
  embed::SgnsOptions options = GoldenSgnsOptions();
  options.checkpoint.dir = ScratchDir("resume_torn");
  options.checkpoint.fs = &faulty;

  {
    const embed::Corpus corpus = GoldenCorpus();
    Rng rng = MakeRng(7);
    Budget budget = Budget::WorkUnits(2 * kSgnsPairsPerEpoch + 500);
    const StatusOr<embed::SgnsModel> killed =
        TrainSgnsOnCorpus(corpus, options, rng, budget);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(faulty.faults_injected(), 1);
  }

  options.checkpoint.fs = nullptr;  // resume against the real filesystem
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  const embed::Corpus corpus = GoldenCorpus();
  Rng rng = MakeRng(7);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainSgnsOnCorpus(corpus, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("sgns/sequential/input", Digest(model->input));
  ExpectGolden("sgns/sequential/output", Digest(model->output));
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.corrupt_skipped"), 1);
  EXPECT_EQ(delta.counter("checkpoint.resumes"), 1);
}

TEST(ResumeTest, StaleOptionsCheckpointIsSkippedNotResumed) {
  // A checkpoint from a run with different hyperparameters must never be
  // resumed into the golden configuration: its fingerprint differs, the
  // trainer starts fresh, and the golden digests still come out.
  embed::SgnsOptions stale = GoldenSgnsOptions();
  stale.learning_rate = 0.01;
  stale.checkpoint.dir = ScratchDir("resume_stale");
  {
    const embed::Corpus corpus = GoldenCorpus();
    Rng rng = MakeRng(7);
    Budget budget = Budget::WorkUnits(kSgnsPairsPerEpoch + 500);
    const StatusOr<embed::SgnsModel> killed =
        TrainSgnsOnCorpus(corpus, stale, rng, budget);
    ASSERT_FALSE(killed.ok());
  }

  embed::SgnsOptions options = GoldenSgnsOptions();
  options.checkpoint.dir = stale.checkpoint.dir;
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  const embed::Corpus corpus = GoldenCorpus();
  Rng rng = MakeRng(7);
  Budget unlimited;
  const StatusOr<embed::SgnsModel> model =
      TrainSgnsOnCorpus(corpus, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("sgns/sequential/input", Digest(model->input));
  ExpectGolden("sgns/sequential/output", Digest(model->output));
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.mismatch_skipped"), 1);
  EXPECT_EQ(delta.counter("checkpoint.resumes"), 0);
}

TEST(ResumeTest, TransEResumeIsBitIdenticalToGolden) {
  Rng data_rng = MakeRng(5);
  const kg::KnowledgeGraph graph = kg::CountriesKnowledgeGraph(12, data_rng);
  kg::TransEOptions options;
  options.dimension = 8;
  options.epochs = 10;
  options.checkpoint.dir = ScratchDir("resume_transe");

  const int64_t total =
      static_cast<int64_t>(graph.Triples().size()) * options.epochs;
  {
    Rng rng = MakeRng(9);
    Budget budget = Budget::WorkUnits(total / 2 + 1);
    const StatusOr<kg::TransEModel> killed =
        kg::TrainTransEBudgeted(graph, options, rng, budget);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  }

  // A run that ignored its checkpoint would retrain from the same seed and
  // reach the same golden, so the resume itself is asserted too.
  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Rng rng = MakeRng(9);
  Budget unlimited;
  const StatusOr<kg::TransEModel> model =
      kg::TrainTransEBudgeted(graph, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("transe/entities", Digest(model->entities));
  ExpectGolden("transe/relations", Digest(model->relations));
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.resumes"), 1);
}

TEST(ResumeTest, RescalResumeIsBitIdenticalToGolden) {
  Rng data_rng = MakeRng(5);
  const kg::KnowledgeGraph graph = kg::CountriesKnowledgeGraph(8, data_rng);
  kg::RescalOptions options;
  options.dimension = 4;
  options.epochs = 5;
  options.checkpoint.dir = ScratchDir("resume_rescal");

  const int64_t total =
      static_cast<int64_t>(graph.NumRelations()) * options.epochs;
  {
    Rng rng = MakeRng(13);
    Budget budget = Budget::WorkUnits(total / 2 + 1);
    const StatusOr<kg::RescalModel> killed =
        kg::TrainRescalBudgeted(graph, options, rng, budget);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  }

  const metrics::Snapshot before = metrics::GlobalSnapshot();
  Rng rng = MakeRng(13);
  Budget unlimited;
  const StatusOr<kg::RescalModel> model =
      kg::TrainRescalBudgeted(graph, options, rng, unlimited);
  ASSERT_TRUE(model.ok());
  ExpectGolden("rescal/entities", Digest(model->entities));
  const metrics::Snapshot delta =
      metrics::Delta(before, metrics::GlobalSnapshot());
  EXPECT_EQ(delta.counter("checkpoint.resumes"), 1);
}

// ---- Final-artifact persistence ---------------------------------------------

TEST(ArtifactTest, SgnsModelAndMatrixRoundTrip) {
  const std::string dir = ScratchDir("artifact_sgns");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  embed::SgnsModel model;
  model.input = Matrix::Random(5, 3, 1.0, /*seed=*/2);
  model.output = Matrix::Random(5, 3, 1.0, /*seed=*/3);
  const std::string path = dir + "/model.x2v";
  ASSERT_TRUE(embed::SaveSgnsModel(DefaultFs(), path, model).ok());
  ExpectGolden("artifact/sgns-model", Digest(FileBytes(path)));
  const StatusOr<embed::SgnsModel> loaded =
      embed::LoadSgnsModel(DefaultFs(), path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Digest(loaded->input), Digest(model.input));
  EXPECT_EQ(Digest(loaded->output), Digest(model.output));

  const Matrix embedding = Matrix::Random(7, 2, 1.0, /*seed=*/4);
  const std::string mpath = dir + "/embedding.x2v";
  ASSERT_TRUE(embed::SaveEmbeddingMatrix(DefaultFs(), mpath, embedding).ok());
  ExpectGolden("artifact/embedding-matrix", Digest(FileBytes(mpath)));
  const StatusOr<Matrix> mloaded = embed::LoadEmbeddingMatrix(DefaultFs(), mpath);
  ASSERT_TRUE(mloaded.ok());
  EXPECT_EQ(Digest(*mloaded), Digest(embedding));
}

TEST(ArtifactTest, KnowledgeGraphModelsRoundTrip) {
  const std::string dir = ScratchDir("artifact_kg");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());

  kg::TransEModel transe;
  transe.entities = Matrix::Random(6, 4, 1.0, /*seed=*/5);
  transe.relations = Matrix::Random(2, 4, 1.0, /*seed=*/6);
  const std::string tpath = dir + "/transe.x2v";
  ASSERT_TRUE(kg::SaveTransEModel(DefaultFs(), tpath, transe).ok());
  ExpectGolden("artifact/transe-model", Digest(FileBytes(tpath)));
  const StatusOr<kg::TransEModel> tloaded =
      kg::LoadTransEModel(DefaultFs(), tpath);
  ASSERT_TRUE(tloaded.ok());
  EXPECT_EQ(Digest(tloaded->entities), Digest(transe.entities));
  EXPECT_EQ(Digest(tloaded->relations), Digest(transe.relations));

  kg::RescalModel rescal;
  rescal.entities = Matrix::Random(6, 3, 1.0, /*seed=*/7);
  rescal.relations.push_back(Matrix::Random(3, 3, 1.0, /*seed=*/8));
  rescal.relations.push_back(Matrix::Random(3, 3, 1.0, /*seed=*/9));
  const std::string rpath = dir + "/rescal.x2v";
  ASSERT_TRUE(kg::SaveRescalModel(DefaultFs(), rpath, rescal).ok());
  ExpectGolden("artifact/rescal-model", Digest(FileBytes(rpath)));
  const StatusOr<kg::RescalModel> rloaded =
      kg::LoadRescalModel(DefaultFs(), rpath);
  ASSERT_TRUE(rloaded.ok());
  EXPECT_EQ(Digest(rloaded->entities), Digest(rescal.entities));
  ASSERT_EQ(rloaded->relations.size(), 2u);
  EXPECT_EQ(Digest(rloaded->relations[0]), Digest(rescal.relations[0]));
  EXPECT_EQ(Digest(rloaded->relations[1]), Digest(rescal.relations[1]));
}

TEST(ArtifactTest, BitFlippedArtifactReadIsCorruptedData) {
  const std::string dir = ScratchDir("artifact_flip");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  const Matrix embedding = Matrix::Random(4, 4, 1.0, /*seed=*/10);
  const std::string path = dir + "/embedding.x2v";
  ASSERT_TRUE(embed::SaveEmbeddingMatrix(DefaultFs(), path, embedding).ok());
  FsFaultPlan plan;
  plan.bit_flip_read_at = 0;
  FaultInjectingFs fs(plan);
  const StatusOr<Matrix> loaded = embed::LoadEmbeddingMatrix(fs, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptedData);
}

TEST(ArtifactTest, MatrixHeaderBeyondIntMaxIsCorruptedData) {
  // Valid checksums around a 2^31 x 0 matrix header: the loader must
  // return a status, not build a Matrix with a negative row count.
  const std::string dir = ScratchDir("artifact_int_max");
  ASSERT_TRUE(DefaultFs().CreateDirs(dir).ok());
  embed::PayloadWriter header;
  header.PutU32(1u << 31);
  header.PutU32(0);
  const std::string path = dir + "/embedding.x2v";
  ASSERT_TRUE(embed::SaveArtifact(DefaultFs(), path,
                                  CheckpointKind::kMatrixArtifact, "matrix",
                                  header.Take())
                  .ok());
  const StatusOr<Matrix> loaded = embed::LoadEmbeddingMatrix(DefaultFs(), path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptedData);
}

}  // namespace
}  // namespace x2vec
