#include "graph/csr.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/metrics.h"

namespace x2vec::graph {
namespace {

// The on-disk layout (all integers little-endian, everything 8-byte
// aligned so the mapped image can be read in place):
//
//   bytes 0..7    magic "x2vcsr01"
//   u32           version (1)
//   u32           flags (bit 0 directed, 1 weights, 2 edge labels,
//                 3 vertex labels)
//   u64           num_vertices
//   u64           num_entries (adjacency entries; 2m undirected)
//   u64           num_edges (logical edges)
//   i64[n + 1]    offsets
//   i32[entries]  targets            (padded to 8)
//   f64[entries]  weights            (when flagged)
//   i32[entries]  edge labels        (padded to 8, when flagged)
//   i32[n]        vertex labels      (padded to 8, when flagged)
//   u64           FNV-1a over every preceding byte
constexpr char kMagic[8] = {'x', '2', 'v', 'c', 's', 'r', '0', '1'};
constexpr uint32_t kVersion = 1;
constexpr int64_t kHeaderBytes = 40;
constexpr uint32_t kFlagDirected = 1u << 0;
constexpr uint32_t kFlagWeights = 1u << 1;
constexpr uint32_t kFlagEdgeLabels = 1u << 2;
constexpr uint32_t kFlagVertexLabels = 1u << 3;
// A corrupt header must not drive an absurd allocation or map: caps far
// above any graph this library targets, far below overflow territory.
constexpr int64_t kMaxVertices = int64_t{1} << 34;
constexpr int64_t kMaxEntries = int64_t{1} << 38;

// FNV-1a from the standard offset basis, unlike the checkpoint container's
// (embed::Fnv1a starts from 1469598103934665603); both formats keep theirs.
uint64_t Fnv1a64(const char* data, int64_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (int64_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

int64_t PadTo8(int64_t bytes) { return (bytes + 7) & ~int64_t{7}; }

template <typename T>
void AppendPod(std::string& out, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out.append(bytes, sizeof(T));
}

template <typename T>
void AppendArray(std::string& out, std::span<const T> values) {
  if (!values.empty()) {
    out.append(reinterpret_cast<const char*>(values.data()),
               values.size() * sizeof(T));
  }
  out.append(static_cast<size_t>(PadTo8(static_cast<int64_t>(
                 values.size() * sizeof(T))) -
             static_cast<int64_t>(values.size() * sizeof(T))),
             '\0');
}

template <typename T>
T ReadPod(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

}  // namespace

// shared_ptr keeps Mapping usable as an incomplete type in the header.
struct CsrGraph::Mapping {
  void* addr = nullptr;
  size_t size = 0;
  ~Mapping() {
    if (addr != nullptr) munmap(addr, size);
  }
};

CsrGraph::~CsrGraph() = default;

CsrGraph CsrGraph::FromGraph(const Graph& g) {
  CsrGraph out;
  const int n = g.NumVertices();
  out.directed_ = g.directed();
  out.num_vertices_ = n;
  out.num_edges_ = g.NumEdges();
  const bool weighted = g.IsWeighted();
  const bool edge_labels = g.HasEdgeLabels();
  const bool vertex_labels = g.HasVertexLabels();

  out.own_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    out.own_offsets_[v + 1] =
        out.own_offsets_[v] + static_cast<int64_t>(g.Neighbors(v).size());
  }
  out.num_entries_ = out.own_offsets_[n];
  out.own_targets_.reserve(static_cast<size_t>(out.num_entries_));
  if (weighted) out.own_weights_.reserve(static_cast<size_t>(out.num_entries_));
  if (edge_labels) {
    out.own_edge_labels_.reserve(static_cast<size_t>(out.num_entries_));
  }
  // Adjacency order is preserved exactly: a walk over the CSR backend
  // indexes the same neighbour at the same position as over the Graph.
  for (int v = 0; v < n; ++v) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      out.own_targets_.push_back(nb.to);
      if (weighted) out.own_weights_.push_back(nb.weight);
      if (edge_labels) out.own_edge_labels_.push_back(nb.label);
    }
  }
  if (vertex_labels) {
    out.own_vertex_labels_.assign(g.VertexLabels().begin(),
                                  g.VertexLabels().end());
  }

  out.offsets_ = out.own_offsets_;
  out.targets_ = out.own_targets_;
  out.weights_ = out.own_weights_;
  out.edge_labels_ = out.own_edge_labels_;
  out.vertex_labels_ = out.own_vertex_labels_;
  X2VEC_METRIC_COUNT("csr.builds", 1);
  X2VEC_METRIC_COUNT("csr.build_entries", out.num_entries_);
  return out;
}

CsrGraph CsrGraph::FromEdgeGenerator(
    int64_t n, int64_t num_edges,
    const std::function<std::pair<int, int>(int64_t)>& edge, bool directed) {
  X2VEC_CHECK_GE(n, 0);
  X2VEC_CHECK_GE(num_edges, 0);
  X2VEC_CHECK_LE(n, kMaxVertices);
  CsrGraph out;
  out.directed_ = directed;
  out.num_vertices_ = n;
  out.num_edges_ = num_edges;
  out.num_entries_ = directed ? num_edges : 2 * num_edges;

  // Pass 1: degrees. Pass 2: fill, bumping a per-vertex cursor. The
  // generator must be deterministic across the two passes.
  out.own_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < num_edges; ++i) {
    const auto [u, v] = edge(i);
    X2VEC_CHECK(u >= 0 && u < n && v >= 0 && v < n)
        << "edge " << i << " endpoint out of range";
    ++out.own_offsets_[u + 1];
    if (!directed) ++out.own_offsets_[v + 1];
  }
  for (int64_t v = 0; v < n; ++v) {
    out.own_offsets_[v + 1] += out.own_offsets_[v];
  }
  out.own_targets_.assign(static_cast<size_t>(out.num_entries_), 0);
  std::vector<int64_t> cursor(out.own_offsets_.begin(),
                              out.own_offsets_.end() - 1);
  for (int64_t i = 0; i < num_edges; ++i) {
    const auto [u, v] = edge(i);
    out.own_targets_[cursor[u]++] = v;
    if (!directed) out.own_targets_[cursor[v]++] = u;
  }

  out.offsets_ = out.own_offsets_;
  out.targets_ = out.own_targets_;
  X2VEC_METRIC_COUNT("csr.builds", 1);
  X2VEC_METRIC_COUNT("csr.build_entries", out.num_entries_);
  return out;
}

CsrGraph CsrGraph::FromEdges(int64_t n,
                             const std::vector<std::pair<int, int>>& edges,
                             bool directed) {
  return FromEdgeGenerator(
      n, static_cast<int64_t>(edges.size()),
      [&edges](int64_t i) { return edges[i]; }, directed);
}

bool CsrGraph::HasEdge(int u, int v) const {
  X2VEC_DCHECK(u >= 0 && u < NumVertices());
  X2VEC_DCHECK(v >= 0 && v < NumVertices());
  const NeighborSpan nbrs = Neighbors(u);
  for (int64_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs.To(i) == v) return true;
  }
  return false;
}

std::string CsrGraph::Serialize() const {
  uint32_t flags = 0;
  if (directed_) flags |= kFlagDirected;
  if (!weights_.empty()) flags |= kFlagWeights;
  if (!edge_labels_.empty()) flags |= kFlagEdgeLabels;
  if (!vertex_labels_.empty()) flags |= kFlagVertexLabels;

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendPod(out, kVersion);
  AppendPod(out, flags);
  AppendPod(out, static_cast<uint64_t>(num_vertices_));
  AppendPod(out, static_cast<uint64_t>(num_entries_));
  AppendPod(out, static_cast<uint64_t>(num_edges_));
  // A default-constructed empty graph has no offsets array yet; the format
  // always stores n + 1 of them.
  if (offsets_.empty()) {
    static constexpr int64_t kZero = 0;
    AppendArray(out, std::span<const int64_t>(&kZero, 1));
  } else {
    AppendArray(out, offsets_);
  }
  AppendArray(out, targets_);
  AppendArray(out, weights_);
  AppendArray(out, edge_labels_);
  AppendArray(out, vertex_labels_);
  AppendPod(out, Fnv1a64(out.data(), static_cast<int64_t>(out.size())));
  return out;
}

StatusOr<CsrGraph> CsrGraph::FromImage(const char* data, int64_t size) {
  if (size < kHeaderBytes + 8) {
    return Status::CorruptedData("CSR image too small for header (" +
                                 std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::CorruptedData("CSR image has a bad magic string");
  }
  const uint32_t version = ReadPod<uint32_t>(data + 8);
  if (version != kVersion) {
    return Status::CorruptedData("unsupported CSR format version " +
                                 std::to_string(version));
  }
  const uint32_t flags = ReadPod<uint32_t>(data + 12);
  const int64_t n = static_cast<int64_t>(ReadPod<uint64_t>(data + 16));
  const int64_t entries = static_cast<int64_t>(ReadPod<uint64_t>(data + 24));
  const int64_t edges = static_cast<int64_t>(ReadPod<uint64_t>(data + 32));
  if (n < 0 || n > kMaxVertices || entries < 0 || entries > kMaxEntries ||
      edges < 0 || edges > kMaxEntries) {
    return Status::CorruptedData("CSR header counts out of range");
  }

  CsrGraph out;
  out.directed_ = (flags & kFlagDirected) != 0;
  out.num_vertices_ = n;
  out.num_entries_ = entries;
  out.num_edges_ = edges;

  int64_t pos = kHeaderBytes;
  const auto take = [&](int64_t elem_bytes,
                        int64_t count) -> const char* {
    const char* at = data + pos;
    pos += PadTo8(elem_bytes * count);
    return at;
  };
  const char* offsets = take(8, n + 1);
  const char* targets = take(4, entries);
  const char* weights =
      (flags & kFlagWeights) != 0 ? take(8, entries) : nullptr;
  const char* edge_labels =
      (flags & kFlagEdgeLabels) != 0 ? take(4, entries) : nullptr;
  const char* vertex_labels =
      (flags & kFlagVertexLabels) != 0 ? take(4, n) : nullptr;
  if (pos + 8 != size) {
    return Status::CorruptedData(
        "CSR image size mismatch: header implies " + std::to_string(pos + 8) +
        " bytes, file has " + std::to_string(size));
  }

  // The arrays start 8-byte aligned within the image (header is 40 bytes,
  // every array is padded to 8); the image base is aligned by the caller
  // (page-aligned mapping or a uint64_t-backed buffer), so reading through
  // typed pointers is in-bounds and aligned.
  out.offsets_ = {reinterpret_cast<const int64_t*>(offsets),
                  static_cast<size_t>(n + 1)};
  out.targets_ = {reinterpret_cast<const int32_t*>(targets),
                  static_cast<size_t>(entries)};
  if (weights != nullptr) {
    out.weights_ = {reinterpret_cast<const double*>(weights),
                    static_cast<size_t>(entries)};
  }
  if (edge_labels != nullptr) {
    out.edge_labels_ = {reinterpret_cast<const int32_t*>(edge_labels),
                        static_cast<size_t>(entries)};
  }
  if (vertex_labels != nullptr) {
    out.vertex_labels_ = {reinterpret_cast<const int32_t*>(vertex_labels),
                          static_cast<size_t>(n)};
  }

  // Offsets must be a monotone prefix-sum ending at the entry count, or
  // every Neighbors() call would be an out-of-bounds hazard.
  if (out.offsets_[0] != 0 || out.offsets_[n] != entries) {
    return Status::CorruptedData("CSR offsets do not span the entry array");
  }
  for (int64_t v = 0; v < n; ++v) {
    if (out.offsets_[v] > out.offsets_[v + 1]) {
      return Status::CorruptedData("CSR offsets are not monotone at vertex " +
                                   std::to_string(v));
    }
  }
  for (int64_t i = 0; i < entries; ++i) {
    if (out.targets_[i] < 0 || out.targets_[i] >= n) {
      return Status::CorruptedData("CSR target out of range at entry " +
                                   std::to_string(i));
    }
  }
  return out;
}

StatusOr<CsrGraph> CsrGraph::Deserialize(const std::string& bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  if (size < kHeaderBytes + 8) {
    return Status::CorruptedData("CSR image too small for header (" +
                                 std::to_string(size) + " bytes)");
  }
  const uint64_t expected = ReadPod<uint64_t>(bytes.data() + size - 8);
  if (Fnv1a64(bytes.data(), size - 8) != expected) {
    return Status::CorruptedData(
        "CSR image failed its checksum (truncated or corrupt)");
  }
  // Copy into an 8-byte-aligned owned buffer so the column spans can read
  // typed values in place regardless of the string's alignment.
  auto image = std::make_shared<std::vector<uint64_t>>(
      static_cast<size_t>((size + 7) / 8), 0);
  std::memcpy(image->data(), bytes.data(), static_cast<size_t>(size));
  StatusOr<CsrGraph> out =
      FromImage(reinterpret_cast<const char*>(image->data()), size);
  if (!out.ok()) return out.status();
  out->image_ = std::move(image);
  X2VEC_METRIC_COUNT("csr.loads", 1);
  X2VEC_METRIC_COUNT("csr.load_bytes", size);
  return out;
}

Status CsrGraph::Save(const std::string& path, Fs& fs) const {
  const std::string bytes = Serialize();
  X2VEC_METRIC_COUNT("csr.save_bytes", static_cast<int64_t>(bytes.size()));
  return fs.WriteFileAtomic(path, bytes);
}

StatusOr<CsrGraph> CsrGraph::Load(const std::string& path, Fs& fs) {
  // CSR files may legitimately exceed the default 1 GiB slurp guard; the
  // format's own header caps and checksum bound what gets trusted.
  StatusOr<std::string> bytes =
      fs.ReadFile(path, /*max_bytes=*/int64_t{1} << 40);
  if (!bytes.ok()) return bytes.status();
  return Deserialize(*bytes);
}

StatusOr<CsrGraph> CsrGraph::OpenMapped(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("CSR file not found: " + path);
    }
    return Status::IoError("open('" + path + "') failed: " +
                           std::strerror(errno));
  }
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fstat('" + path + "') failed: " + error);
  }
  const int64_t size = static_cast<int64_t>(st.st_size);
  if (size < kHeaderBytes + 8) {
    ::close(fd);
    return Status::CorruptedData("CSR file '" + path +
                                 "' too small for header (" +
                                 std::to_string(size) + " bytes)");
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->addr = mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
  mapping->size = static_cast<size_t>(size);
  ::close(fd);
  if (mapping->addr == MAP_FAILED) {
    mapping->addr = nullptr;
    return Status::IoError("mmap('" + path + "') failed: " +
                           std::strerror(errno));
  }

  const char* data = static_cast<const char*>(mapping->addr);
  const uint64_t expected = ReadPod<uint64_t>(data + size - 8);
  if (Fnv1a64(data, size - 8) != expected) {
    return Status::CorruptedData("CSR file '" + path +
                                 "' failed its checksum "
                                 "(truncated or corrupt)");
  }
  StatusOr<CsrGraph> out = FromImage(data, size);
  if (!out.ok()) return out.status();
  out->mapping_ = std::move(mapping);
  X2VEC_METRIC_COUNT("csr.mmap_loads", 1);
  X2VEC_METRIC_COUNT("csr.load_bytes", size);
  return out;
}

}  // namespace x2vec::graph
