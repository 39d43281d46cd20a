#include "open_loop.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <thread>


#include "stats.h"

namespace perfbench {

namespace ds = desalign;
using ds::serve::ServeStatus;
using ds::serve::TopKResult;

namespace {

/// Longest the generator sleeps between polls of the oldest outstanding
/// answer; bounds how late an answer can be timestamped.
constexpr int64_t kPollNs = 100'000;

bool Ready(const std::future<TopKResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

}  // namespace

int64_t RequestIdentity::RequestOf(int64_t row) const {
  const int64_t last = newest.load(std::memory_order_acquire);
  const int64_t off = offset.load(std::memory_order_relaxed);
  const int64_t back = ((off + last - row) % pool + pool) % pool;
  return last - back;
}

OpenLoopResult RunOpenLoop(ds::serve::BatchQueue& queue,
                           const ArrivalSchedule& schedule,
                           const std::vector<float>& pool, int64_t dim,
                           const OpenLoopOptions& options) {
  OpenLoopResult run;
  const size_t n = schedule.due_s.size();
  run.requests.resize(n);
  run.backlog.reserve(n);
  if (options.identity != nullptr) {
    options.identity->offset.store(n > 0 ? schedule.query[0] : 0);
    options.identity->newest.store(-1, std::memory_order_release);
  }
  const auto limit_ns = static_cast<int64_t>(options.limit_ms * 1e6);
  // A short lead so the first due time is not already in the past.
  const int64_t start_ns = NowNs() + 2'000'000;
  for (size_t i = 0; i < n; ++i) {
    run.requests[i].due_ns =
        start_ns + static_cast<int64_t>(schedule.due_s[i] * 1e9);
  }

  std::atomic<bool> stop_reload{false};
  std::thread reloader;
  if (options.reload) {
    reloader = std::thread([&] {
      while (!stop_reload.load(std::memory_order_relaxed)) {
        const int64_t t0 = NowNs();
        const bool ok = options.reload();
        run.reload_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        if (!ok) ++run.reload_failures;
      }
    });
  }

  struct Inflight {
    size_t index;
    std::future<TopKResult> future;
  };
  std::deque<Inflight> inflight;
  const auto resolve = [&](size_t i, std::future<TopKResult>& f, int64_t now) {
    TopKResult r = f.get();
    RequestRecord& rec = run.requests[i];
    rec.done_ns = now;
    rec.status = r.status;
    rec.degradation = r.degradation;
    if (options.sample_every > 0 && r.status == ServeStatus::kOk &&
        i % static_cast<size_t>(options.sample_every) == 0) {
      run.samples.emplace_back(schedule.query[i], std::move(r));
    }
  };

  size_t next = 0;
  while (next < n || !inflight.empty()) {
    const int64_t now = NowNs();
    if (next < n && now >= run.requests[next].due_ns) {
      RequestRecord& rec = run.requests[next];
      const float* row = pool.data() + schedule.query[next] * dim;
      if (options.identity != nullptr) {
        options.identity->newest.store(static_cast<int64_t>(next),
                                       std::memory_order_release);
      }
      rec.submit_ns = NowNs();
      std::future<TopKResult> f = queue.SubmitWithDeadline(
          std::vector<float>(row, row + dim),
          TimePointFromNs(rec.due_ns + limit_ns));
      if (Ready(f)) {
        resolve(next, f, NowNs());
      } else {
        inflight.push_back({next, std::move(f)});
      }
      run.backlog.push_back(static_cast<int64_t>(inflight.size()));
      ++next;
      if (next == n && reloader.joinable()) {
        stop_reload.store(true, std::memory_order_relaxed);
      }
      continue;
    }
    // Answers leave the queue in submission order (FIFO batches), so
    // polling the oldest outstanding future timestamps each answer within
    // one poll of its resolution.
    if (!inflight.empty() && Ready(inflight.front().future)) {
      resolve(inflight.front().index, inflight.front().future, now);
      inflight.pop_front();
      continue;
    }
    // Nothing due and nothing answered: sleep briefly instead of spinning,
    // so the generator does not steal cycles from the scan threads.
    int64_t wake = now + kPollNs;
    if (next < n) wake = std::min(wake, run.requests[next].due_ns);
    if (wake > now) std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
  }
  stop_reload.store(true, std::memory_order_relaxed);
  if (reloader.joinable()) reloader.join();
  return run;
}

std::vector<double> LatenciesMs(const OpenLoopResult& run, double limit_ms) {
  std::vector<double> out;
  out.reserve(run.requests.size());
  for (const RequestRecord& r : run.requests) {
    const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
    out.push_back(r.status == ServeStatus::kOk ? ms : limit_ms + ms);
  }
  return out;
}

double WindowedPercentile(const OpenLoopResult& run, double limit_ms, double q,
                          double window_s) {
  const std::vector<double> latency = LatenciesMs(run, limit_ms);
  if (latency.empty()) return Percentile(latency, q);
  const int64_t first = run.requests.front().due_ns;
  const auto window_ns = static_cast<int64_t>(window_s * 1e9);
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < latency.size(); ++i) {
    const auto w =
        static_cast<size_t>((run.requests[i].due_ns - first) / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency[i]);
  }
  std::vector<double> per_window;
  for (auto& w : windows) {
    if (w.size() >= 20) per_window.push_back(Percentile(std::move(w), q));
  }
  return per_window.empty() ? Percentile(latency, q) : Median(per_window);
}

std::vector<double> GeneratorLagMs(const OpenLoopResult& run) {
  std::vector<double> out;
  out.reserve(run.requests.size());
  for (const RequestRecord& r : run.requests) {
    out.push_back(static_cast<double>(r.submit_ns - r.due_ns) / 1e6);
  }
  return out;
}

PhaseCount CountPhase(const std::string& name, double offered_qps,
                      const OpenLoopResult& run, double limit_ms) {
  PhaseCount p;
  p.name = name;
  p.offered_qps = offered_qps;
  for (const RequestRecord& r : run.requests) {
    ++p.attempted;
    switch (r.status) {
      case ServeStatus::kOk: {
        const double ms = static_cast<double>(r.done_ns - r.due_ns) / 1e6;
        if (ms <= limit_ms) {
          ++p.ok_on_time;
        } else {
          ++p.late;
        }
        if (r.degradation != ds::serve::DegradationLevel::kNone) ++p.degraded;
        break;
      }
      case ServeStatus::kRejectedQueueFull:
        ++p.rejected;
        break;
      case ServeStatus::kDeadlineExceeded:
        ++p.deadline;
        break;
      case ServeStatus::kInvalidQuery:
        ++p.invalid;
        break;
      default:
        ++p.other;
        break;
    }
  }
  return p;
}

bool RungPasses(const OpenLoopResult& run, double limit_ms, int64_t slack) {
  if (run.requests.empty()) return false;
  if (Percentile(LatenciesMs(run, limit_ms), 0.99) > limit_ms) return false;
  const size_t q = run.backlog.size() / 4;
  if (q == 0) return true;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < q; ++i) {
    first += static_cast<double>(run.backlog[i]);
    last += static_cast<double>(run.backlog[run.backlog.size() - 1 - i]);
  }
  return (last - first) / static_cast<double>(q) <= static_cast<double>(slack);
}

}  // namespace perfbench
