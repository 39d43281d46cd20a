#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <ctime>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/thread_pool.h"
#include "tensor/kernels/dispatch.h"

namespace perfbench {

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string UtcDate() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void WriteMetrics(std::ostringstream& os, const std::vector<Metric>& metrics) {
  os << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ",";
    os << JsonString(metrics[i].name) << ":{\"value\":"
       << JsonNumber(metrics[i].value)
       << ",\"unit\":" << JsonString(metrics[i].unit) << "}";
  }
  os << "}";
}

}  // namespace

int64_t WorkloadResult::RequestsAttempted() const {
  int64_t n = 0;
  for (const PhaseCount& p : phases) n += p.attempted;
  return n;
}

int64_t WorkloadResult::RequestsFailed() const {
  int64_t n = 0;
  for (const PhaseCount& p : phases) n += p.failed();
  return n;
}

bool WorkloadResult::Correct() const {
  if (checks.empty()) return false;
  for (const CheckResult& c : checks) {
    if (!c.pass) return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string FinalLine(const WorkloadResult& result, bool trace) {
  const bool correct = result.Correct();
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << std::max<int64_t>(result.attempted, 1)
     << ",\"failed\":" << result.failed << ",\"metrics\":";
  WriteMetrics(os, correct ? (trace ? result.layer : result.e2e)
                           : std::vector<Metric>{});
  os << "}";
  return os.str();
}

std::string DetailJson(const WorkloadResult& result, const RunOptions& options,
                       double wall_seconds) {
  namespace kernels = desalign::tensor::kernels;
  std::ostringstream os;
  os << "{\"report\":\"desalign.perfbench.v1\",\"workload\":"
     << JsonString(options.workload) << ",\"seed\":" << options.seed
     << ",\"seconds\":" << JsonNumber(options.seconds)
     << ",\"trace\":" << (options.trace ? "true" : "false")
     << ",\"wall_s\":" << JsonNumber(wall_seconds);
  os << ",\"provenance\":{\"cpu\":" << JsonString(CpuModel())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"isa\":" << JsonString(kernels::IsaName(kernels::ActiveIsa()))
     << ",\"pool_threads\":"
     << desalign::common::ThreadPool::Global().num_threads()
     << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << JsonString(std::string("gcc-compatible ") + __VERSION__)
     << ",\"git_sha\":" << JsonString(options.git_sha)
     << ",\"git_dirty\":" << JsonString(options.git_dirty)
     << ",\"source_digest\":" << JsonString(options.source_digest)
     << ",\"date\":" << JsonString(UtcDate()) << "}";
  os << ",\"correct\":" << (result.Correct() ? "true" : "false")
     << ",\"attempted\":" << result.attempted
     << ",\"failed\":" << result.failed
     << ",\"requests\":{\"attempted\":" << result.RequestsAttempted()
     << ",\"failed\":" << result.RequestsFailed() << "}";
  os << ",\"e2e\":";
  WriteMetrics(os, result.e2e);
  os << ",\"e2e_ungated\":";
  WriteMetrics(os, result.ungated);
  os << ",\"layer\":";
  WriteMetrics(os, result.layer);
  os << ",\"checks\":[";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    const CheckResult& c = result.checks[i];
    if (i) os << ",";
    os << "{\"name\":" << JsonString(c.name)
       << ",\"pass\":" << (c.pass ? "true" : "false")
       << ",\"detail\":" << JsonString(c.detail) << "}";
  }
  os << "],\"phases\":[";
  for (size_t i = 0; i < result.phases.size(); ++i) {
    const PhaseCount& p = result.phases[i];
    if (i) os << ",";
    os << "{\"name\":" << JsonString(p.name)
       << ",\"offered_qps\":" << JsonNumber(p.offered_qps)
       << ",\"attempted\":" << p.attempted << ",\"ok_on_time\":" << p.ok_on_time
       << ",\"late\":" << p.late << ",\"rejected\":" << p.rejected
       << ",\"deadline\":" << p.deadline << ",\"invalid\":" << p.invalid
       << ",\"other\":" << p.other << ",\"degraded\":" << p.degraded << "}";
  }
  os << "],\"unmeasured\":{";
  for (size_t i = 0; i < result.unmeasured.size(); ++i) {
    if (i) os << ",";
    os << JsonString(result.unmeasured[i].first) << ":"
       << JsonString(result.unmeasured[i].second);
  }
  os << "},\"info\":{";
  for (size_t i = 0; i < result.info.size(); ++i) {
    if (i) os << ",";
    os << JsonString(result.info[i].first) << ":"
       << JsonString(result.info[i].second);
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
