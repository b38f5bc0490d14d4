#include "embed/checkpoint.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "base/metrics.h"
#include "base/trace.h"
#include "base/validation.h"
#include "embed/sgns.h"

namespace x2vec::embed {
namespace {

constexpr char kMagic[8] = {'x', '2', 'v', 'c', 'k', 'p', 't', '\0'};
constexpr uint32_t kFormatVersion = 1;

/// Caps a single section payload (and the section count) so a corrupt
/// length field fails fast instead of driving a huge allocation.
constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 30;
constexpr uint32_t kMaxSections = 1 << 10;

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
  }
}

uint32_t ReadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t HashBytes(std::string_view bytes) {
  Fnv1a hasher;
  hasher.Update(bytes);
  return hasher.digest();
}

}  // namespace

void Fnv1a::UpdateDouble(double v) { UpdateU64(std::bit_cast<uint64_t>(v)); }

Status ValidateCheckpointOptions(const CheckpointOptions& options) {
  if (!options.enabled()) return Status::Ok();
  return ValidateOptions({
      {"checkpoint.every_n_epochs",
       static_cast<double>(options.every_n_epochs),
       OptionCheck::Rule::kPositive},
      {"checkpoint.keep_last", static_cast<double>(options.keep_last),
       OptionCheck::Rule::kPositive},
  });
}

void PayloadWriter::PutU32(uint32_t v) { AppendU32(bytes_, v); }
void PayloadWriter::PutU64(uint64_t v) { AppendU64(bytes_, v); }
void PayloadWriter::PutI64(int64_t v) {
  AppendU64(bytes_, static_cast<uint64_t>(v));
}
void PayloadWriter::PutDouble(double v) {
  AppendU64(bytes_, std::bit_cast<uint64_t>(v));
}
void PayloadWriter::PutString(std::string_view v) {
  AppendU64(bytes_, v.size());
  bytes_.append(v);
}
void PayloadWriter::PutMatrix(const linalg::Matrix& m) {
  PutU32(static_cast<uint32_t>(m.rows()));
  PutU32(static_cast<uint32_t>(m.cols()));
  for (double value : m.data()) {
    AppendU64(bytes_, std::bit_cast<uint64_t>(value));
  }
}

bool PayloadReader::Take(size_t n, const char** out) {
  if (!status_.ok()) return false;
  if (pos_ + n > bytes_.size()) {
    Fail("payload ends early: wanted " + std::to_string(n) + " bytes");
    return false;
  }
  *out = bytes_.data() + pos_;
  pos_ += n;
  return true;
}

void PayloadReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::CorruptedData(what + " at payload byte offset " +
                                    std::to_string(pos_));
  }
}

uint32_t PayloadReader::GetU32() {
  const char* p = nullptr;
  if (!Take(4, &p)) return 0;
  return ReadU32(p);
}

uint64_t PayloadReader::GetU64() {
  const char* p = nullptr;
  if (!Take(8, &p)) return 0;
  return ReadU64(p);
}

int64_t PayloadReader::GetI64() { return static_cast<int64_t>(GetU64()); }

double PayloadReader::GetDouble() { return std::bit_cast<double>(GetU64()); }

std::string PayloadReader::GetString() {
  const uint64_t length = GetU64();
  if (!status_.ok()) return {};
  if (length > kMaxSectionBytes) {
    Fail("string length " + std::to_string(length) + " exceeds the format cap");
    return {};
  }
  const char* p = nullptr;
  if (!Take(static_cast<size_t>(length), &p)) return {};
  return std::string(p, static_cast<size_t>(length));
}

linalg::Matrix PayloadReader::GetMatrix() {
  const uint32_t rows = GetU32();
  const uint32_t cols = GetU32();
  if (!status_.ok()) return {};
  // A Matrix holds at most INT_MAX rows and columns: a 2^31 x 0 header
  // claims no entries but must fail too.
  constexpr uint32_t kMaxExtent = std::numeric_limits<int>::max();
  const uint64_t entries = static_cast<uint64_t>(rows) * cols;
  if (rows > kMaxExtent || cols > kMaxExtent ||
      entries > (bytes_.size() - pos_) / 8) {
    Fail("matrix claims " + std::to_string(rows) + "x" + std::to_string(cols) +
         " entries: beyond INT_MAX rows or columns, or the payload is too "
         "short");
    return {};
  }
  linalg::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
  std::vector<double>& data = m.mutable_data();
  for (uint64_t i = 0; i < entries; ++i) {
    const char* p = nullptr;
    if (!Take(8, &p)) return {};
    data[i] = std::bit_cast<double>(ReadU64(p));
  }
  return m;
}

void PayloadReader::ExpectEnd() {
  if (status_.ok() && pos_ != bytes_.size()) {
    Fail("payload has " + std::to_string(bytes_.size() - pos_) +
         " trailing bytes");
  }
}

const CheckpointSection* CheckpointData::Find(std::string_view name) const {
  for (const CheckpointSection& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

std::string EncodeCheckpoint(const CheckpointData& data) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(out, kFormatVersion);
  AppendU32(out, static_cast<uint32_t>(data.kind));
  AppendU64(out, data.fingerprint);
  AppendU32(out, static_cast<uint32_t>(data.sections.size()));
  for (const CheckpointSection& section : data.sections) {
    AppendU32(out, static_cast<uint32_t>(section.name.size()));
    out.append(section.name);
    AppendU64(out, section.payload.size());
    out.append(section.payload);
    AppendU64(out, HashBytes(section.payload));
  }
  AppendU64(out, HashBytes(out));
  return out;
}

StatusOr<CheckpointData> DecodeCheckpoint(std::string_view bytes) {
  const auto corrupt = [&](const std::string& what, size_t offset) {
    return Status::CorruptedData(what + " at byte offset " +
                                 std::to_string(offset));
  };
  constexpr size_t kHeaderBytes = sizeof(kMagic) + 4 + 4 + 8 + 4;
  if (bytes.size() < kHeaderBytes + 8) {
    return corrupt("file too short for a checkpoint header", bytes.size());
  }
  // The trailing whole-file checksum covers everything before it; check it
  // first so truncation anywhere is caught before structure parsing.
  const size_t body_end = bytes.size() - 8;
  const uint64_t stored_file_hash = ReadU64(bytes.data() + body_end);
  if (HashBytes(bytes.substr(0, body_end)) != stored_file_hash) {
    return corrupt("whole-file checksum mismatch", body_end);
  }
  if (std::string_view(bytes.data(), sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    return corrupt("bad magic (not a checkpoint file)", 0);
  }
  size_t pos = sizeof(kMagic);
  const uint32_t version = ReadU32(bytes.data() + pos);
  if (version != kFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(version),
                   pos);
  }
  pos += 4;
  CheckpointData data;
  data.kind = static_cast<CheckpointKind>(ReadU32(bytes.data() + pos));
  pos += 4;
  data.fingerprint = ReadU64(bytes.data() + pos);
  pos += 8;
  const uint32_t section_count = ReadU32(bytes.data() + pos);
  pos += 4;
  if (section_count > kMaxSections) {
    return corrupt("section count " + std::to_string(section_count) +
                       " exceeds the format cap",
                   pos - 4);
  }
  data.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    if (pos + 4 > body_end) {
      return corrupt("section " + std::to_string(i) + " header truncated", pos);
    }
    const uint32_t name_len = ReadU32(bytes.data() + pos);
    pos += 4;
    if (name_len > kMaxSections || pos + name_len > body_end) {
      return corrupt("section " + std::to_string(i) + " name truncated", pos);
    }
    CheckpointSection section;
    section.name.assign(bytes.data() + pos, name_len);
    pos += name_len;
    if (pos + 8 > body_end) {
      return corrupt("section '" + section.name + "' length truncated", pos);
    }
    const uint64_t payload_len = ReadU64(bytes.data() + pos);
    pos += 8;
    if (payload_len > kMaxSectionBytes || pos + payload_len + 8 > body_end) {
      return corrupt("section '" + section.name + "' payload truncated", pos);
    }
    section.payload.assign(bytes.data() + pos,
                           static_cast<size_t>(payload_len));
    pos += static_cast<size_t>(payload_len);
    const uint64_t stored_hash = ReadU64(bytes.data() + pos);
    pos += 8;
    if (HashBytes(section.payload) != stored_hash) {
      return corrupt("section '" + section.name + "' checksum mismatch",
                     pos - 8);
    }
    data.sections.push_back(std::move(section));
  }
  if (pos != body_end) {
    return corrupt("trailing bytes after the last section", pos);
  }
  return data;
}

std::string CheckpointFileName(int epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return "ckpt.e" + digits + ".x2v";
}

namespace {

/// True for names CheckpointFileName could have produced.
bool IsCheckpointName(const std::string& name) {
  return name.size() >= 6 + 4 + 4 && name.rfind("ckpt.e", 0) == 0 &&
         name.substr(name.size() - 4) == ".x2v";
}

}  // namespace

Status SaveCheckpoint(const CheckpointOptions& options, int epoch,
                      const CheckpointData& data) {
  trace::Span span("checkpoint/save");
  Fs& fs = options.filesystem();
  Status status = fs.CreateDirs(options.dir);
  if (!status.ok()) return status;
  const std::string path = options.dir + "/" + CheckpointFileName(epoch);
  status = fs.WriteFileAtomic(path, EncodeCheckpoint(data));
  if (!status.ok()) return status;
  X2VEC_METRIC_COUNT("checkpoint.saves", 1);
  // GC: drop everything but the newest keep_last checkpoint files. Names
  // embed zero-padded epochs, so sorted name order is epoch order.
  StatusOr<std::vector<std::string>> names = fs.ListDir(options.dir);
  if (!names.ok()) return names.status();
  std::vector<std::string> checkpoints;
  for (const std::string& name : *names) {
    if (IsCheckpointName(name)) checkpoints.push_back(name);
  }
  if (checkpoints.size() > static_cast<size_t>(options.keep_last)) {
    const size_t drop = checkpoints.size() - options.keep_last;
    for (size_t i = 0; i < drop; ++i) {
      status = fs.Remove(options.dir + "/" + checkpoints[i]);
      if (!status.ok() && status.code() != StatusCode::kNotFound) {
        return status;
      }
    }
  }
  return Status::Ok();
}

StatusOr<std::optional<CheckpointData>> LoadLatestCheckpoint(
    const CheckpointOptions& options, CheckpointKind kind,
    uint64_t fingerprint) {
  trace::Span span("checkpoint/load_latest");
  Fs& fs = options.filesystem();
  StatusOr<std::vector<std::string>> names = fs.ListDir(options.dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return std::optional<CheckpointData>();  // Fresh start.
    }
    return names.status();
  }
  std::vector<std::string> checkpoints;
  for (const std::string& name : *names) {
    if (IsCheckpointName(name)) checkpoints.push_back(name);
  }
  // Newest (highest epoch) first; fall back to older intact files when the
  // newest is damaged.
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    const std::string path = options.dir + "/" + *it;
    StatusOr<std::string> bytes =
        ReadFileWithRetry(fs, path, options.read_retry);
    if (!bytes.ok()) {
      X2VEC_METRIC_COUNT("checkpoint.corrupt_skipped", 1);
      continue;
    }
    StatusOr<CheckpointData> decoded = DecodeCheckpoint(*bytes);
    if (!decoded.ok()) {
      X2VEC_METRIC_COUNT("checkpoint.corrupt_skipped", 1);
      continue;
    }
    if (decoded->kind != kind || decoded->fingerprint != fingerprint) {
      // Structurally sound but written by a different run configuration:
      // resuming from it would silently train the wrong model.
      X2VEC_METRIC_COUNT("checkpoint.mismatch_skipped", 1);
      continue;
    }
    return std::optional<CheckpointData>(std::move(*decoded));
  }
  return std::optional<CheckpointData>();  // Nothing usable: fresh start.
}

Status SaveArtifact(Fs& fs, const std::string& path, CheckpointKind kind,
                    std::string section, std::string payload) {
  CheckpointData data{kind, 0, {{std::move(section), std::move(payload)}}};
  return fs.WriteFileAtomic(path, EncodeCheckpoint(data));
}

Status LoadArtifact(Fs& fs, const std::string& path, CheckpointKind kind,
                    std::string_view section,
                    const std::function<void(PayloadReader&)>& read) {
  StatusOr<std::string> bytes = fs.ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  StatusOr<CheckpointData> decoded = DecodeCheckpoint(*bytes);
  if (!decoded.ok()) {
    return Status::CorruptedData(path + ": " + decoded.status().message());
  }
  if (decoded->kind != kind) {
    return Status::CorruptedData(
        path + ": wrong artifact kind " +
        std::to_string(static_cast<uint32_t>(decoded->kind)) + " (expected " +
        std::to_string(static_cast<uint32_t>(kind)) + ")");
  }
  const CheckpointSection* found = decoded->Find(section);
  if (found == nullptr) {
    return Status::CorruptedData(path + ": missing '" + std::string(section) +
                                 "' section");
  }
  PayloadReader reader(found->payload);
  read(reader);
  reader.ExpectEnd();
  if (!reader.status().ok()) {
    return Status::CorruptedData(path + ": " + reader.status().message());
  }
  return Status::Ok();
}

Status SaveSgnsModel(Fs& fs, const std::string& path, const SgnsModel& model) {
  PayloadWriter writer;
  writer.PutMatrix(model.input);
  writer.PutMatrix(model.output);
  return SaveArtifact(fs, path, CheckpointKind::kSgnsModelArtifact, "model",
                      writer.Take());
}

StatusOr<SgnsModel> LoadSgnsModel(Fs& fs, const std::string& path) {
  SgnsModel model;
  const Status status =
      LoadArtifact(fs, path, CheckpointKind::kSgnsModelArtifact, "model",
                   [&](PayloadReader& reader) {
                     model.input = reader.GetMatrix();
                     model.output = reader.GetMatrix();
                   });
  if (!status.ok()) return status;
  return model;
}

Status SaveEmbeddingMatrix(Fs& fs, const std::string& path,
                           const linalg::Matrix& matrix) {
  PayloadWriter writer;
  writer.PutMatrix(matrix);
  return SaveArtifact(fs, path, CheckpointKind::kMatrixArtifact, "matrix",
                      writer.Take());
}

StatusOr<linalg::Matrix> LoadEmbeddingMatrix(Fs& fs, const std::string& path) {
  linalg::Matrix matrix;
  const Status status = LoadArtifact(
      fs, path, CheckpointKind::kMatrixArtifact, "matrix",
      [&](PayloadReader& reader) { matrix = reader.GetMatrix(); });
  if (!status.ok()) return status;
  return matrix;
}

}  // namespace x2vec::embed
