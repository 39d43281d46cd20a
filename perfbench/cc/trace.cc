#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

const SteadyClock::time_point kEpoch = SteadyClock::now();

std::string Escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - kEpoch)
      .count();
}

SteadyClock::time_point TimePointFromNs(int64_t ns) {
  return kEpoch + std::chrono::nanoseconds(ns);
}

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end_ns <= start_ns) return 0;
  for (auto& [b, e] : children) {
    b = std::max(b, start_ns);
    e = std::min(e, end_ns);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start_ns;
  for (const auto& [b, e] : children) {
    if (e <= b) continue;
    const int64_t from = std::max(b, cursor);
    if (e > from) {
      covered += e - from;
      cursor = e;
    }
  }
  return (end_ns - start_ns) - covered;
}

int64_t SpanRecorder::Begin(std::string_view name, int64_t parent,
                            int64_t request) {
  if (!enabled_) return -1;
  const int64_t t0 = NowNs();
  desalign::common::MutexLock lock(mutex_);
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{id, parent, request, std::string(name), t0, -1});
  overhead_ns_ += NowNs() - t0;
  return id;
}

void SpanRecorder::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const int64_t t0 = NowNs();
  desalign::common::MutexLock lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = t0;
  overhead_ns_ += NowNs() - t0;
}

int64_t SpanRecorder::Add(std::string_view name, int64_t parent,
                          int64_t request, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return -1;
  const int64_t t0 = NowNs();
  desalign::common::MutexLock lock(mutex_);
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back(
      Span{id, parent, request, std::string(name), start_ns, end_ns});
  overhead_ns_ += NowNs() - t0;
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  desalign::common::MutexLock lock(mutex_);
  return spans_;
}

double SpanRecorder::overhead_seconds() const {
  desalign::common::MutexLock lock(mutex_);
  return static_cast<double>(overhead_ns_) / 1e9;
}

void SpanRecorder::AddOverheadNs(int64_t ns) {
  desalign::common::MutexLock lock(mutex_);
  overhead_ns_ += ns;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : all) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << Escape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << SelfTimeNs(s.start_ns, s.end_ns, children[s.id])
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
