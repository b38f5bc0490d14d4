#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/fs.h"
#include "base/status.h"
#include "linalg/matrix.h"

namespace x2vec::embed {

/// Defined in embed/sgns.h, which includes this header for
/// CheckpointOptions; a forward declaration here keeps the includes
/// acyclic.
struct SgnsModel;

/// Versioned, checksummed binary persistence for trained models and
/// mid-training checkpoints.
///
/// File layout (all integers little-endian):
///
///   magic "x2vckpt\0" | format_version u32 | kind u32 | fingerprint u64
///   | section_count u32
///   | per section: name_len u32, name bytes, payload_len u64,
///                  payload bytes, payload FNV-1a u64
///   | whole-file FNV-1a u64 over everything before it
///
/// The per-section checksums localise corruption ("section 'trainer' of
/// ckpt.e000002.x2v"); the whole-file checksum catches truncation after the
/// last section. `kind` tags which trainer family wrote the file and
/// `fingerprint` binds it to one (options, data, seed) combination, so a
/// stale or foreign checkpoint is skipped rather than resumed into the
/// wrong run. Section payloads are opaque here: the epoch loop
/// (embed/epochs.h) and the artifact savers encode them with
/// PayloadWriter/PayloadReader below, which is what keeps this layer free
/// of kg/ types (kg links against embed, not vice versa).
///
/// Resume contract: a trainer that saves at an epoch barrier and is later
/// resumed from that file replays the remaining epochs with the exact draw
/// sequence and learning-rate schedule the uninterrupted run would have
/// used, so the final model is bit-identical (pinned against the golden
/// digests of tests/goldens.h by tests/persist_test.cc).

/// Incremental FNV-1a (64-bit) — the same digest scheme the golden-model
/// tests use, exposed so trainers can fingerprint options and data.
class Fnv1a {
 public:
  static constexpr uint64_t kOffset = 1469598103934665603ull;
  static constexpr uint64_t kPrime = 1099511628211ull;

  void Update(const void* bytes, size_t n) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kPrime;
    }
  }
  void Update(std::string_view bytes) { Update(bytes.data(), bytes.size()); }
  /// Hashes the little-endian byte rendering of `v` (platform-stable).
  void UpdateU64(uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    Update(bytes, sizeof(bytes));
  }
  void UpdateDouble(double v);

  [[nodiscard]] uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffset;
};

/// Which trainer family (or artifact type) wrote a checkpoint file.
/// Values are part of the on-disk format; never renumber. Kinds 1-4 are
/// mid-training checkpoints, all in the layout of embed/epochs.h.
enum class CheckpointKind : uint32_t {
  kSgnsSequential = 1,   ///< TrainSgnsStreaming / TrainPvDbowStreaming.
  kSgnsSharded = 2,      ///< TrainSgns/PvDbowShardedStreaming.
  kTransE = 3,           ///< kg::TrainTransEBudgeted mid-training.
  kRescal = 4,           ///< kg::TrainRescalBudgeted mid-training.
  kSgnsModelArtifact = 5,  ///< Final SgnsModel (input + output matrices).
  kMatrixArtifact = 6,   ///< Final embedding matrix (graph / node outputs).
  kTransEModelArtifact = 7,  ///< Final TransEModel (kg/persist.h).
  kRescalModelArtifact = 8,  ///< Final RescalModel (kg/persist.h).
};

/// Opt-in checkpointing knobs carried by each trainer's options struct.
/// Checkpointing is off (and costs nothing) while `dir` is empty.
struct CheckpointOptions {
  std::string dir;          ///< Checkpoint directory; empty = disabled.
  int every_n_epochs = 1;   ///< Save after every n-th completed epoch.
  int keep_last = 2;        ///< Newest checkpoints retained; older GC'd.
  Fs* fs = nullptr;         ///< Filesystem override; DefaultFs() when null.
  ReadRetryPolicy read_retry;  ///< Retry policy for checkpoint reads.

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
  [[nodiscard]] Fs& filesystem() const {
    return fs != nullptr ? *fs : DefaultFs();
  }
};

/// kInvalidArgument naming the first bad field when checkpointing is
/// enabled (non-positive every_n_epochs / keep_last); OK when disabled.
[[nodiscard]] Status ValidateCheckpointOptions(const CheckpointOptions& options);

/// Serialises primitive fields and matrices into a section payload.
class PayloadWriter {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutDouble(double v);  ///< Bit-exact via the IEEE-754 bit pattern.
  void PutString(std::string_view v);
  void PutMatrix(const linalg::Matrix& m);

  [[nodiscard]] std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Decodes a section payload with a sticky error: the first malformed or
/// out-of-bounds field records a kCorruptedData status (with the byte
/// offset) and every later getter returns a default value, so callers
/// decode the whole section linearly and check status() once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] uint32_t GetU32();
  [[nodiscard]] uint64_t GetU64();
  [[nodiscard]] int64_t GetI64();
  [[nodiscard]] double GetDouble();
  [[nodiscard]] std::string GetString();
  [[nodiscard]] linalg::Matrix GetMatrix();

  /// Fails (sticky) unless every payload byte has been consumed.
  void ExpectEnd();

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  bool Take(size_t n, const char** out);
  void Fail(const std::string& what);

  std::string_view bytes_;
  size_t pos_ = 0;
  Status status_;
};

/// One named opaque payload inside a checkpoint file.
struct CheckpointSection {
  std::string name;
  std::string payload;
};

/// Decoded checkpoint: the kind/fingerprint header plus its sections.
struct CheckpointData {
  CheckpointKind kind = CheckpointKind::kSgnsSequential;
  uint64_t fingerprint = 0;
  std::vector<CheckpointSection> sections;

  /// Pointer to the section called `name`, or nullptr.
  [[nodiscard]] const CheckpointSection* Find(std::string_view name) const;
};

/// Renders `data` in the on-disk format (header, checksummed sections,
/// whole-file checksum).
[[nodiscard]] std::string EncodeCheckpoint(const CheckpointData& data);

/// Parses and verifies bytes produced by EncodeCheckpoint. Any structural
/// damage — bad magic, unknown version, truncation, a failed section or
/// whole-file checksum — is kCorruptedData naming the failing part and
/// byte offset.
[[nodiscard]] StatusOr<CheckpointData> DecodeCheckpoint(std::string_view bytes);

/// Checkpoint filename for an epoch barrier: "ckpt.e<6-digit epoch>.x2v"
/// (zero-padded so lexicographic name order is epoch order).
[[nodiscard]] std::string CheckpointFileName(int epoch);

/// Encodes `data` and writes it atomically to
/// `options.dir/CheckpointFileName(epoch)`, creating the directory on
/// first use, then garbage-collects all but the newest `keep_last`
/// checkpoint files. Counts `checkpoint.saves`. `epoch` is the number of
/// completed epochs the file captures.
[[nodiscard]] Status SaveCheckpoint(const CheckpointOptions& options, int epoch,
                                    const CheckpointData& data);

/// Scans `options.dir` newest-first for a checkpoint with this kind and
/// fingerprint. Corrupt, unreadable (after retries) or mismatched files
/// are skipped — counted in `checkpoint.corrupt_skipped` /
/// `checkpoint.mismatch_skipped` — and the newest intact match is
/// returned. ok(nullopt) means "no usable checkpoint: start fresh"; a
/// missing directory is also a fresh start, never an error.
[[nodiscard]] StatusOr<std::optional<CheckpointData>> LoadLatestCheckpoint(
    const CheckpointOptions& options, CheckpointKind kind,
    uint64_t fingerprint);

/// ---- Final-artifact persistence (the save-a-trained-model API). ----

/// Writes a one-section artifact atomically via `fs`: `payload` as section
/// `section` of a container tagged `kind` (fingerprint 0). The Save*Model
/// functions here and in kg/persist.h are built on it.
[[nodiscard]] Status SaveArtifact(Fs& fs, const std::string& path,
                                  CheckpointKind kind, std::string section,
                                  std::string payload);

/// Reads an artifact written by SaveArtifact and hands its section
/// `section` to `read`, which must consume the whole payload. kCorruptedData
/// naming `path` on checksum or structure damage, a wrong kind, a missing
/// section or a malformed payload; kNotFound / kIoError from the filesystem.
[[nodiscard]] Status LoadArtifact(
    Fs& fs, const std::string& path, CheckpointKind kind,
    std::string_view section, const std::function<void(PayloadReader&)>& read);

/// Writes a trained SgnsModel (input + output matrices) to `path`
/// atomically via `fs`.
[[nodiscard]] Status SaveSgnsModel(Fs& fs, const std::string& path,
                                   const SgnsModel& model);

/// Loads a file written by SaveSgnsModel. kCorruptedData on checksum or
/// structure damage, kNotFound / kIoError from the filesystem.
[[nodiscard]] StatusOr<SgnsModel> LoadSgnsModel(Fs& fs,
                                                const std::string& path);

/// Writes one embedding matrix (graph2vec / node-embedding output) to
/// `path` atomically via `fs`.
[[nodiscard]] Status SaveEmbeddingMatrix(Fs& fs, const std::string& path,
                                         const linalg::Matrix& matrix);

/// Loads a file written by SaveEmbeddingMatrix.
[[nodiscard]] StatusOr<linalg::Matrix> LoadEmbeddingMatrix(
    Fs& fs, const std::string& path);

}  // namespace x2vec::embed
