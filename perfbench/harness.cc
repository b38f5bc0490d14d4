#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "base/parallel.h"
#include "base/rng.h"
#include "embed/checkpoint.h"
#include "linalg/kernels.h"
#include "linalg/kernels_backend.h"

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Keeps probe results observable so the timed loops cannot be elided.
volatile double g_sink = 0.0;

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, Quote(value));
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, Number(value));
}

void Report::Ops(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  Ops(1, ok ? 0 : 1);
  std::fprintf(stderr, "check %-28s %s  %s\n", name.c_str(),
               ok ? "ok  " : "FAIL", detail.c_str());
}

std::string Report::MetaJson() const {
  std::string out = "{\"meta\": {";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(meta_[i].first) + ": " + meta_[i].second;
  }
  return out + "}}";
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(metric.first) +
           ", \"unit\": " + Quote(metric.second) + "}";
  }
  return out + "}}";
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  (void)sched_setaffinity(0, sizeof(one), &one);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double FastEnd(const std::vector<double>& values, bool lower_is_better) {
  return Quantile(values, lower_is_better ? 0.02 : 0.98);
}

double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window) {
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  const size_t size = samples.size() / windows;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + w * size,
                            samples.begin() + (w + 1) * size),
        q));
  }
  return FastEnd(per_window, /*lower_is_better=*/true);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoll(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return -1.0;
}

bool ResetPeakRss() {
  // Writing "5" to clear_refs resets VmHWM to the current RSS.
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  return refs.good();
}

uint64_t Digest(const x2vec::linalg::Matrix& m) {
  x2vec::embed::Fnv1a hash;
  hash.UpdateU64(static_cast<uint64_t>(m.rows()));
  hash.UpdateU64(static_cast<uint64_t>(m.cols()));
  for (const double v : m.data()) hash.UpdateDouble(v);
  return hash.digest();
}

bool AllFinite(const x2vec::linalg::Matrix& m) {
  if (m.rows() == 0 || m.cols() == 0) return false;
  return std::all_of(m.data().begin(), m.data().end(),
                     [](double v) { return std::isfinite(v); });
}

double MatrixMb(int64_t rows, int64_t cols) {
  return static_cast<double>(rows * cols * 8) / (1024.0 * 1024.0);
}

double ProbeForkNs() {
  constexpr int kCalls = 20000;
  uint64_t sink = 0;
  const double start = Now();
  for (int i = 0; i < kCalls; ++i) {
    x2vec::Rng rng = x2vec::Rng::Fork(0x5eed, static_cast<uint64_t>(i));
    sink ^= rng();
  }
  const double seconds = Now() - start;
  g_sink = g_sink + static_cast<double>(sink & 1);
  return seconds * 1e9 / kCalls;
}

double ProbeDispatchUs() {
  constexpr int kCalls = 4000;
  std::vector<int64_t> touched(32, 0);
  const auto body = [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++touched[static_cast<size_t>(i)];
    return x2vec::Status::Ok();
  };
  // Warm the shared pool so its thread start-up is not charged.
  for (int i = 0; i < 16; ++i) (void)x2vec::ParallelFor(32, 0, body);
  const double start = Now();
  for (int i = 0; i < kCalls; ++i) (void)x2vec::ParallelFor(32, 0, body);
  const double seconds = Now() - start;
  g_sink = g_sink + static_cast<double>(touched[0]);
  return seconds * 1e6 / kCalls;
}

double ProbeSgdPairNs(int dim, uint64_t seed) {
  constexpr int kRows = 256;
  constexpr int kCalls = 200000;
  const x2vec::linalg::Matrix center =
      x2vec::linalg::Matrix::Random(kRows, dim, 0.1, seed);
  const x2vec::linalg::Matrix context =
      x2vec::linalg::Matrix::Random(kRows, dim, 0.1, seed + 1);
  std::vector<double> gradient(static_cast<size_t>(dim), 0.0);
  std::vector<double> delta(static_cast<size_t>(dim), 0.0);
  double loss = 0.0;
  const double start = Now();
  for (int i = 0; i < kCalls; ++i) {
    loss += x2vec::linalg::SgdPairUpdateDelta(
        center.ConstRowSpan(i % kRows), context.ConstRowSpan((i * 7) % kRows),
        (i & 7) == 0 ? 1.0 : 0.0, 0.025, gradient, delta);
  }
  const double seconds = Now() - start;
  g_sink = g_sink + loss + gradient[0] + delta[0];
  return seconds * 1e9 / kCalls;
}

double ProbeDotNs(int dim, uint64_t seed) {
  constexpr int kRows = 256;
  constexpr int kCalls = 400000;
  const x2vec::linalg::Matrix rows =
      x2vec::linalg::Matrix::Random(kRows, dim, 1.0, seed);
  double sum = 0.0;
  const double start = Now();
  for (int i = 0; i < kCalls; ++i) {
    sum += x2vec::linalg::Dot(rows.ConstRowSpan(i % kRows),
                              rows.ConstRowSpan((i * 13 + 1) % kRows));
  }
  const double seconds = Now() - start;
  g_sink = g_sink + sum;
  return seconds * 1e9 / kCalls;
}

void RecordProbes(Report& report, int train_dim, int serve_dim,
                  uint64_t seed) {
  report.Metric("rng.fork_ns", ProbeForkNs(), "ns");
  report.Metric("parallel.dispatch_us", ProbeDispatchUs(), "us");
  report.Metric("kernels.sgd_pair_ns", ProbeSgdPairNs(train_dim, seed), "ns");
  report.Metric("kernels.dot_ns", ProbeDotNs(serve_dim, seed), "ns");
  report.Meta("probe_train_dim", train_dim);
  report.Meta("probe_serve_dim", serve_dim);
}

void RecordRunMeta(Report& report, const Options& options) {
#if defined(__x86_64__)
  const char* arch = "x86_64";
#elif defined(__aarch64__)
  const char* arch = "aarch64";
#else
  const char* arch = "unknown";
#endif
  const x2vec::linalg::CpuFeatures cpu = x2vec::linalg::DetectCpuFeatures();
  std::string isa = arch;
  if (cpu.avx2) isa += "+avx2";
  if (cpu.fma) isa += "+fma";
  report.Meta("workload", options.workload);
  report.Meta("seed", static_cast<double>(options.seed));
  report.Meta("seconds", options.seconds);
  report.Meta("traced", options.trace ? "true" : "false");
  report.Meta("scale", options.toy ? "toy" : "full");
  report.Meta("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Meta("threads", options.threads);
  report.Meta("isa", isa);
  report.Meta("kernel_backend", std::string(x2vec::linalg::KernelBackendName(
                                    x2vec::linalg::ActiveKernelBackend())));
  report.Meta("vectorized_uses_avx2",
              x2vec::linalg::VectorizedUsesAvx2() ? "true" : "false");
  report.Meta("compiler", __VERSION__);
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  report.Meta("build_flags", PERFBENCH_BUILD_FLAGS);
}

}  // namespace perfbench
