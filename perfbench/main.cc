// x2vec benchmark binary. Usually started through run.py, which builds it:
//
//   x2vec_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--toy] [--scratch DIR]
//
// Prints one {"meta": ...} line, then the result line
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "base/parallel.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

void ZeroPerLayer(Report& report) {
  // Name and unit of every per-layer metric (BENCHMARK.json "per_layer").
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"rng.fork_ns", "ns"},
      {"parallel.dispatch_us", "us"},
      {"csr.build_s", "s"},
      {"csr.mb", "MB"},
      {"stream.count_s", "s"},
      {"stream.pull_s", "s"},
      {"stream.pull_share", "ratio"},
      {"stream.ns_per_token", "ns"},
      {"sgns.train_s", "s"},
      {"sgns.self_s", "s"},
      {"sgns.pairs_per_s", "1/s"},
      {"sgns.negative_redraw_share", "ratio"},
      {"sgns.thread_speedup", "x"},
      {"ckpt.save_s", "s"},
      {"ckpt.saves", "count"},
      {"ckpt.mb_written", "MB"},
      {"ckpt.stall_share", "ratio"},
      {"g2v.union_s", "s"},
      {"wl.refine_s", "s"},
      {"wl.vocab", "count"},
      {"pvdbow.train_s", "s"},
      {"kernels.sgd_pair_ns", "ns"},
      {"kernels.dot_ns", "ns"},
      {"index.build_s", "s"},
      {"index.topk_p50_us", "us"},
      {"index.topk_p99_us", "us"},
      {"index.rows_scored_per_query", "count"},
      {"index.scan_fraction", "ratio"},
      {"engine.self_us", "us"},
      {"mem.model_mb", "MB"},
      {"mem.other_mb", "MB"},
      {"trace.overhead_s", "s"},
      {"trace.coverage", "ratio"},
  };
  for (const auto& [name, unit] : kMetrics) {
    report.Metric(name, 0.0, unit);
  }
}

}  // namespace perfbench

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "x2vec_perfbench: %s\nusage: x2vec_perfbench --workload "
               "deepwalk_stream|node2vec_ckpt|graph2vec_wl|serve_ivf --seed N "
               "--seconds S --trace 0|1 [--toy] [--scratch DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Options;
  const std::map<std::string, void (*)(const Options&, perfbench::Report&)>
      workloads = {
          {"deepwalk_stream", perfbench::RunDeepWalkStream},
          {"node2vec_ckpt", perfbench::RunNode2VecCkpt},
          {"graph2vec_wl", perfbench::RunGraph2VecWl},
          {"serve_ivf", perfbench::RunServeIvf},
      };

  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--toy") {
      options.toy = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) return Usage("unknown --workload");

  options.threads = std::min(4, x2vec::HardwareThreads());
  x2vec::SetThreadCount(options.threads);

  perfbench::Report report;
  perfbench::RecordRunMeta(report, options);
  const double start = perfbench::Now();
  workload->second(options, report);
  report.Meta("run_wall_s", perfbench::Now() - start);
  std::printf("%s\n%s\n", report.MetaJson().c_str(),
              report.ResultJson().c_str());
  return report.correct() ? 0 : 1;
}
