// perfbench: one command per workload for the DESAlign pipeline.
//
//   perfbench --workload <fbdb_exact|dbp_ivf> --seed N --seconds S
//             --trace 0|1
//
// Prints a detailed JSON report, then, as the last line of stdout, the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The result object holds every metric the run measured; run.py keeps the
// ones BENCHMARK.json names. Normally launched through perfbench/run.py,
// which builds this binary.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fbdb_exact|dbp_ivf --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] "
               "[--git-dirty 0|1] [--source-digest HEX]\n",
               why);
  return 2;
}

bool ParseUnsigned(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  perfbench::WorkloadSpec spec;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &n) || n < 1 || n > 600) {
        return Usage("--seconds must be a whole number in [1, 600]");
      }
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--git-dirty") {
      options.git_dirty = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!perfbench::FindWorkload(options.workload, &spec)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  std::filesystem::create_directories(options.out_dir);

  perfbench::SpanRecorder recorder(options.trace);
  const int64_t t0 = perfbench::NowNs();
  perfbench::WorkloadResult result =
      perfbench::RunWorkload(options, recorder, spec);
  const double wall_s = static_cast<double>(perfbench::NowNs() - t0) / 1e9;
  if (options.trace) {
    result.Layer("bench.trace_overhead_frac",
                 recorder.overhead_seconds() / wall_s, "ratio");
  }

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  const std::string detail = perfbench::DetailJson(result, options, wall_s);
  std::ofstream(stem + ".json") << detail << "\n";
  if (options.trace) recorder.WriteJsonl(stem + ".spans.jsonl");

  for (const auto& c : result.checks) {
    if (!c.pass) {
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", c.name.c_str(),
                   c.detail.c_str());
    }
  }
  std::cout << detail << "\n"
            << perfbench::FinalLine(result, options.trace) << std::endl;
  return result.Correct() ? 0 : 1;
}
