// The serving stage of a workload: open-loop serving of a 10^5 x 64 table
// of seeded clustered rows through BatchQueue.
//
//  - exact (fbdb_exact): fp32 rows saved as a checkpoint and loaded back,
//    scanned by TopKRetriever (brute force). Brute scan and batching do
//    the work.
//  - IVF (dbp_ivf): the same rows quantized to int8 in a v3 checkpoint,
//    served by IvfRetriever (~sqrt(n) cells, nprobe 8, int8 scan +
//    re-rank). The IVF probe, int8 scan and re-rank do the work.
//
// Phases, each on a fresh queue: warm-up, `low`, `high`, `reload` (low
// rate while the store is reloaded every period), the max-rate ladder, and
// `over` (about twice capacity). Every rate is a fixed qps value below,
// so a parent commit and a change are offered the same load.

#include <cmath>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <utility>

#include <unistd.h>

#include "checks.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "index/ivf.h"
#include "obs/metrics.h"
#include "open_loop.h"
#include "probes.h"
#include "schedule.h"
#include "serve/batch_queue.h"
#include "serve/embedding_store.h"
#include "serve/stats.h"
#include "serve/topk.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace ds = desalign;
namespace fs = std::filesystem;
using ds::serve::TopKResult;

namespace {

constexpr int64_t kRows = 100000;
constexpr int64_t kDim = 64;
constexpr int64_t kClusters = 256;
constexpr float kNoise = 0.25f;
constexpr int64_t kQueryPool = 4096;
constexpr int64_t kTopK = 10;
constexpr double kLimitMs = 50.0;
constexpr int64_t kMaxBatch = 64;  // BatchQueueOptions::max_batch default
constexpr int64_t kSampleEvery = 16;
constexpr int64_t kRecallQueries = 1024;
/// Latency percentiles are taken per window of this length and reported as
/// the median over a phase's windows (see WindowedPercentile).
constexpr double kLatencyWindowS = 0.5;

/// Fixed offered rates (qps), from the capacity C the seed commit sustained
/// on the reference host (the max_rate_qps it measured; see README.md):
/// `low` ~ C/2, `high` ~ 0.9 C, `over` ~ 2 C. The ladder's rungs are
/// ladder_from * ladder_step^i, rounded. max_pending is about half a
/// deadline of drain at C, so an admitted request's queue wait leaves half
/// the latency limit for its scan.
struct ServeRates {
  double low;
  double high;
  double over;
  double ladder_from;
  double ladder_step;
  int ladder_rungs;
  int64_t max_pending;
  double recall_floor;
};

// C = 740 qps.
const ServeRates kExactRates = {370.0, 670.0, 1480.0, 370.0, 1.08, 12,
                                16, 1.0};

// C = 19000 qps.
const ServeRates kIvfRates = {9500.0, 17000.0, 38000.0, 9500.0, 1.08, 12,
                              480, 0.9};

/// k-means sample for the IVF coarse quantizer (~26 rows per cell).
constexpr int64_t kKmeansSampleRows = 8192;

/// Phase lengths as shares of the serving stage's kServeShare of
/// --seconds; at --seconds 20 (14 s of serving) the low, high and reload
/// phases each hold over a thousand requests, enough for a p99 with ten
/// samples beyond it.
constexpr double kWarmupShare = 0.03;
constexpr double kLowShare = 0.2;
constexpr double kHighShare = 0.15;
constexpr double kReloadShare = 0.2;
constexpr double kOverShare = 0.05;
constexpr double kRungShare = 0.03;  // each of the ladder's rungs

/// Clustered rows: a mixture around `kClusters` random unit centers, from
/// splitmix64 so the table depends on the seed alone.
std::vector<float> MixtureRows(uint64_t& state, const std::vector<float>& centers,
                               int64_t n) {
  std::vector<float> rows(static_cast<size_t>(n * kDim));
  for (int64_t i = 0; i < n; ++i) {
    const float* c = centers.data() +
                     static_cast<int64_t>(SplitMix64(state) % kClusters) * kDim;
    for (int64_t j = 0; j < kDim; ++j) {
      rows[static_cast<size_t>(i * kDim + j)] =
          c[j] + kNoise * static_cast<float>(2.0 * UnitUniform(state) - 1.0);
    }
  }
  return rows;
}

uint64_t RowKey(const float* row) { return Digest(row, kDim * sizeof(float)); }

/// Benchmark-owned Retriever wrapper for the traced run: times each batch
/// scan and maps every query row back to its request, so queue wait
/// (submit → scan start) and scan time are measured per request without
/// instrumenting the library.
class TimedRetriever final : public ds::serve::Retriever {
 public:
  struct Scan {
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  TimedRetriever(const ds::serve::Retriever& inner,
                 const std::unordered_map<uint64_t, int64_t>& rows,
                 const RequestIdentity& identity, SpanRecorder& recorder)
      : inner_(inner), rows_(rows), identity_(identity), recorder_(recorder) {}

  std::vector<TopKResult> Retrieve(const float* queries, int64_t num_queries,
                                   int64_t k) const override {
    const int64_t t0 = NowNs();
    auto out = inner_.Retrieve(queries, num_queries, k);
    Note(queries, num_queries, t0, NowNs());
    return out;
  }

  std::vector<TopKResult> RetrieveDegraded(
      const float* queries, int64_t num_queries, int64_t k,
      ds::serve::DegradationLevel level) const override {
    const int64_t t0 = NowNs();
    auto out = inner_.RetrieveDegraded(queries, num_queries, k, level);
    Note(queries, num_queries, t0, NowNs());
    return out;
  }

  int64_t dim() const override { return inner_.dim(); }
  int64_t size() const override { return inner_.size(); }

  /// Scans and batch (size, ms) records since the last call.
  std::vector<Scan> TakeScans() {
    ds::common::MutexLock lock(mutex_);
    return std::exchange(scans_, {});
  }
  std::vector<std::pair<int64_t, double>> TakeBatches() {
    ds::common::MutexLock lock(mutex_);
    return std::exchange(batches_, {});
  }

 private:
  void Note(const float* queries, int64_t n, int64_t start, int64_t end) const {
    const int64_t t0 = NowNs();
    ds::common::MutexLock lock(mutex_);
    for (int64_t i = 0; i < n; ++i) {
      const auto it = rows_.find(RowKey(queries + i * kDim));
      const int64_t request =
          it == rows_.end() ? -1 : identity_.RequestOf(it->second);
      scans_.push_back({request, start, end});
    }
    batches_.emplace_back(n, static_cast<double>(end - start) / 1e6);
    recorder_.AddOverheadNs(NowNs() - t0);
  }

  const ds::serve::Retriever& inner_;
  const std::unordered_map<uint64_t, int64_t>& rows_;
  const RequestIdentity& identity_;
  SpanRecorder& recorder_;
  mutable ds::common::Mutex mutex_;
  mutable std::vector<Scan> scans_ GUARDED_BY(mutex_);
  mutable std::vector<std::pair<int64_t, double>> batches_ GUARDED_BY(mutex_);
};

/// Everything set-up builds; rebuilt kSetupReps times.
struct ServeState {
  ds::serve::EmbeddingStore truth_store;  ///< fp32, in memory
  ds::serve::EmbeddingStore store;        ///< what is served, loaded from disk
  std::unique_ptr<ds::index::IvfRetriever> ivf;
  std::unique_ptr<ds::serve::TopKRetriever> exact;
};

}  // namespace

double RunServeStage(const RunOptions& options, SpanRecorder& recorder,
                     bool ivf, WorkloadResult& result) {
  const ServeRates& rates = ivf ? kIvfRates : kExactRates;
  const int cores = NumCores();
  // Thread budget = cores: the generator (this thread), a reloader that
  // only runs in the reload phase, the BatchQueue worker (which also runs
  // scan chunks as ParallelFor's caller) and cores − 3 scan workers. The
  // global pool is kept at one thread so nothing else spins up workers.
  ds::common::ThreadPool::SetGlobalThreadCount(1);
  ds::common::ThreadPool scan_pool(std::max(1, cores - 2));
  ds::obs::MetricsRegistry registry;
  const std::string path = options.out_dir + "/serve-" +
                           (ivf ? "ivf" : "exact") + "-" +
                           std::to_string(getpid()) + ".ckpt";
  result.Info("serve.threads", "generator 1, reloader 1 (reload phase), queue "
                         "worker 1, scan pool " +
                             std::to_string(scan_pool.num_threads()) +
                             " (worker included)");

  // ---- Set-up ----
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<double> quantize_ms;
  std::vector<double> build_ms;
  std::vector<float> queries;
  auto state = std::make_unique<ServeState>();
  bool setup_ok = true;
  for (int rep = 0; rep < kSetupReps && setup_ok; ++rep) {
    state = std::make_unique<ServeState>();
    const int64_t span = recorder.Begin("setup");
    const int64_t t0 = NowNs();
    TimeMedianMs(recorder, "serve.generate_rows", span, 1, [&] {
      uint64_t rng = SubSeed(options.seed, 21);
      std::vector<float> centers(static_cast<size_t>(kClusters * kDim));
      for (float& v : centers) v = static_cast<float>(2.0 * UnitUniform(rng) - 1.0);
      ds::serve::L2NormalizeRows(centers.data(), kClusters, kDim);
      std::vector<float> rows = MixtureRows(rng, centers, kRows);
      queries = MixtureRows(rng, centers, kQueryPool);
      state->truth_store =
          ds::serve::EmbeddingStore::FromRows(kRows, kDim, std::move(rows));
    });
    ds::serve::EmbeddingStore to_save;
    if (ivf) {
      quantize_ms.push_back(TimeMedianMs(recorder, "serve.quantize", span, 1, [&] {
        auto q = state->truth_store.Quantize(ds::nn::TensorDtype::kInt8);
        setup_ok &= q.ok();
        if (q.ok()) to_save = std::move(q).value();
      }));
    } else {
      to_save = state->truth_store;
    }
    TimeMedianMs(recorder, "serve.store_save", span, 1,
                 [&] { setup_ok &= to_save.Save(path).ok(); });
    load_ms.push_back(TimeMedianMs(recorder, "serve.store_load", span, 1, [&] {
      auto loaded = ds::serve::EmbeddingStore::Load(path);
      setup_ok &= loaded.ok();
      if (loaded.ok()) state->store = std::move(loaded).value();
    }));
    if (ivf) {
      build_ms.push_back(TimeMedianMs(recorder, "index.build", span, 1, [&] {
        ds::index::IvfOptions opts;
        opts.num_centroids = static_cast<int64_t>(std::lround(std::sqrt(kRows)));
        opts.nprobe = 8;
        opts.kmeans_sample_rows = kKmeansSampleRows;
        opts.seed = SubSeed(options.seed, 22);
        opts.pool = &scan_pool;
        opts.registry = &registry;
        state->ivf = std::make_unique<ds::index::IvfRetriever>(&state->store, opts);
      }));
    } else {
      ds::serve::TopKOptions opts;
      opts.pool = &scan_pool;
      opts.registry = &registry;
      state->exact = std::make_unique<ds::serve::TopKRetriever>(&state->store, opts);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    recorder.End(span);
  }
  if (!setup_ok) {
    result.Check({"setup", false, "saving or loading the serving checkpoint failed"});
    fs::remove(path);
    return std::nan("");
  }
  const ds::serve::Retriever& real =
      ivf ? static_cast<const ds::serve::Retriever&>(*state->ivf)
          : static_cast<const ds::serve::Retriever&>(*state->exact);

  // ---- Traced-run wrapper ----
  std::unordered_map<uint64_t, int64_t> row_of;
  for (int64_t i = 0; i < kQueryPool; ++i) row_of[RowKey(queries.data() + i * kDim)] = i;
  if (static_cast<int64_t>(row_of.size()) != kQueryPool) {
    result.Check({"query_pool_distinct", false, "duplicate query rows"});
    fs::remove(path);
    return std::nan("");
  }
  RequestIdentity identity;
  identity.pool = kQueryPool;
  TimedRetriever timed(real, row_of, identity, recorder);
  const ds::serve::Retriever& served =
      recorder.enabled() ? static_cast<const ds::serve::Retriever&>(timed) : real;

  ds::serve::BatchQueueOptions queue_options;
  // BatchQueue defaults (max_batch 64, max_wait 1 ms, k 10) except the
  // admission bound, the deadline and the overload governor.
  queue_options.k = kTopK;
  queue_options.max_pending = rates.max_pending;
  queue_options.deadline_ms = kLimitMs;
  queue_options.overload.enabled = true;
  queue_options.overload.sample_window_ms = 20.0;
  queue_options.overload.recover_hold_ms = 100.0;

  std::vector<std::pair<int64_t, TopKResult>> samples;
  std::vector<double> gen_lag_ms;
  std::vector<double> reload_ms;
  int64_t reloads = 0;
  int64_t reload_failures = 0;
  int64_t phase_index = 0;
  int64_t request_base = 0;
  struct PhaseTrace {
    std::vector<double> queue_wait_ms;
    std::vector<std::pair<int64_t, double>> batches;
  };
  const auto run_phase = [&](const std::string& name, double qps, double seconds,
                             bool reload,
                             PhaseTrace* trace) -> OpenLoopResult {
    const ArrivalSchedule schedule = PoissonSchedule(
        SubSeed(options.seed, 100 + static_cast<uint64_t>(phase_index++)), qps,
        seconds, kQueryPool);
    ds::obs::MetricsRegistry phase_registry;
    ds::serve::ServeStats stats(&phase_registry);
    OpenLoopOptions loop;
    loop.limit_ms = kLimitMs;
    loop.sample_every = kSampleEvery;
    loop.identity = recorder.enabled() ? &identity : nullptr;
    if (reload) {
      loop.reload = [&]() {
        return ivf ? state->ivf->ReloadAndRebuild(path).ok()
                   : state->store.Reload(path).ok();
      };
    }
    const int64_t span = recorder.Begin("phase." + name);
    OpenLoopResult run;
    {
      ds::serve::BatchQueue queue(&served, queue_options, &stats);
      run = RunOpenLoop(queue, schedule, queries, kDim, loop);
      queue.Shutdown();
    }
    recorder.End(span);
    result.phases.push_back(CountPhase(name, qps, run, kLimitMs));
    if (name != "warmup") {
      const auto lag = GeneratorLagMs(run);
      gen_lag_ms.insert(gen_lag_ms.end(), lag.begin(), lag.end());
    }
    for (auto& s : run.samples) samples.push_back(std::move(s));
    run.samples.clear();
    reload_ms.insert(reload_ms.end(), run.reload_ms.begin(), run.reload_ms.end());
    reloads += static_cast<int64_t>(run.reload_ms.size());
    reload_failures += run.reload_failures;
    if (recorder.enabled()) {
      // Per-request spans: request (submit → answer) with its queue wait
      // and its batch's scan as children, all carrying the request's id.
      const auto scans = timed.TakeScans();
      const auto batches = timed.TakeBatches();
      std::vector<const TimedRetriever::Scan*> scan_of(run.requests.size(), nullptr);
      for (const auto& s : scans) {
        if (s.request >= 0 && s.request < static_cast<int64_t>(scan_of.size())) {
          scan_of[static_cast<size_t>(s.request)] = &s;
        }
      }
      for (size_t i = 0; i < run.requests.size(); ++i) {
        const RequestRecord& r = run.requests[i];
        const int64_t id = request_base + static_cast<int64_t>(i);
        const int64_t req = recorder.Add("request", span, id, r.submit_ns, r.done_ns);
        if (const auto* s = scan_of[i]) {
          recorder.Add("queue_wait", req, id, r.submit_ns, s->start_ns);
          recorder.Add("scan", req, id, s->start_ns, s->end_ns);
          if (trace != nullptr) {
            trace->queue_wait_ms.push_back(
                static_cast<double>(s->start_ns - r.submit_ns) / 1e6);
          }
        }
      }
      if (trace != nullptr) trace->batches = batches;
    }
    request_base += static_cast<int64_t>(run.requests.size());
    return run;
  };

  const double s = kServeShare * options.seconds;
  run_phase("warmup", rates.low, kWarmupShare * s, false, nullptr);
  const OpenLoopResult low =
      run_phase("low", rates.low, kLowShare * s, false, nullptr);
  PhaseTrace high_trace;
  const OpenLoopResult high =
      run_phase("high", rates.high, kHighShare * s, false, &high_trace);
  const OpenLoopResult reload =
      run_phase("reload", rates.low, kReloadShare * s, true, nullptr);
  // Every rung runs, each on a fresh queue; max_rate_qps is the highest
  // rung that passes. Rungs above capacity fail on a growing backlog, while
  // a rung below capacity that one scheduling hiccup fails does not hide
  // the rungs above it.
  double max_rate = 0.0;
  double rung = rates.ladder_from;
  for (int i = 0; i < rates.ladder_rungs; ++i, rung *= rates.ladder_step) {
    rung = std::round(rung);
    const OpenLoopResult r =
        run_phase("ladder." + std::to_string(static_cast<int64_t>(rung)), rung,
                  kRungShare * s, false, nullptr);
    if (RungPasses(r, kLimitMs, kMaxBatch)) max_rate = rung;
  }
  run_phase("over", rates.over, kOverShare * s, false, nullptr);
  const PhaseCount over_count = result.phases.back();

  // ---- Correctness ----
  std::vector<float> recall_queries(queries.begin(),
                                    queries.begin() + kRecallQueries * kDim);
  const auto served_direct = real.Retrieve(recall_queries.data(), kRecallQueries, kTopK);
  ds::serve::TopKOptions truth_options;
  truth_options.pool = &scan_pool;
  truth_options.registry = &registry;
  const ds::serve::TopKRetriever truth(&state->truth_store, truth_options);
  const auto fp32_truth =
      truth.RetrieveBruteForce(recall_queries.data(), kRecallQueries, kTopK);
  const double recall = RecallAtK(served_direct, fp32_truth);
  result.Info("digest.topk", Hex(DigestTopK(served_direct)));
  result.Check(CheckRecallFloor(ivf ? "recall_floor" : "recall_exact", recall,
                                rates.recall_floor));
  {
    // Answers the queue served (sampled) must be byte-identical to the
    // reference for the same query: brute force for the exact retriever,
    // a direct full-quality IvfRetriever call for IVF (degraded IVF
    // answers probe fewer cells and are skipped).
    std::vector<TopKResult> got;
    std::vector<float> sample_queries;
    for (const auto& [row, answer] : samples) {
      if (ivf && answer.degradation != ds::serve::DegradationLevel::kNone) continue;
      got.push_back(answer);
      sample_queries.insert(sample_queries.end(), queries.begin() + row * kDim,
                            queries.begin() + (row + 1) * kDim);
    }
    const auto n = static_cast<int64_t>(got.size());
    const auto want =
        ivf ? state->ivf->Retrieve(sample_queries.data(), n, kTopK)
            : state->exact->RetrieveBruteForce(sample_queries.data(), n, kTopK);
    const std::string name =
        ivf ? "queue_answers_match_direct" : "queue_answers_match_bruteforce";
    result.Check(got.empty() ? CheckResult{name, false, "no sampled answers"}
                             : CheckIdenticalTopK(name, got, want));
  }
  result.Check(CheckZero("reload_failures", reload_failures));
  result.attempted += reloads;
  result.failed += reload_failures;

  const auto p = [](const OpenLoopResult& r, double q) {
    return WindowedPercentile(r, kLimitMs, q, kLatencyWindowS);
  };
  result.E2e("recall_at_10", recall, "ratio");
  // Measured and reported, but not gated: over ten seeds on the reference
  // host their spread exceeded (latencies) or sat at (exact goodput and max
  // rate) the largest bound allowed; see README.md "Steadiness".
  result.Ungated("p50_ms.low", p(low, 0.5), "ms");
  result.Ungated("p99_ms.low", p(low, 0.99), "ms");
  result.Ungated("p50_ms.high", p(high, 0.5), "ms");
  result.Ungated("p99_ms.high", p(high, 0.99), "ms");
  result.Ungated("p99_ms.reload", p(reload, 0.99), "ms");
  result.Ungated("goodput_qps.over",
                 static_cast<double>(over_count.ok_on_time) / (kOverShare * s),
                 "1/s");
  result.Ungated("max_rate_qps", max_rate, "1/s");

  if (recorder.enabled()) {
    result.Layer("serve.queue_wait_ms_p50", Percentile(high_trace.queue_wait_ms, 0.5), "ms");
    result.Layer("serve.queue_wait_ms_p99", Percentile(high_trace.queue_wait_ms, 0.99), "ms");
    std::vector<double> sizes;
    std::vector<double> scan_ms;
    for (const auto& [size, ms] : high_trace.batches) {
      sizes.push_back(static_cast<double>(size));
      scan_ms.push_back(ms);
    }
    result.Layer("serve.batch_size_mean", Mean(sizes), "count");
    result.Layer("serve.scan_ms", Median(scan_ms), "ms");
    result.Layer("serve.store_load_ms", Median(load_ms), "ms");
    result.Layer("serve.reload_ms", Median(reload_ms), "ms");
    const auto ratio = [&](int64_t part) {
      return static_cast<double>(part) /
             static_cast<double>(std::max<int64_t>(over_count.attempted, 1));
    };
    result.Layer("serve.requests", static_cast<double>(over_count.attempted), "count");
    result.Layer("serve.ontime_ratio", ratio(over_count.ok_on_time), "ratio");
    result.Layer("serve.shed_ratio", ratio(over_count.rejected + over_count.deadline), "ratio");
    result.Layer("serve.late_ratio", ratio(over_count.late), "ratio");
    result.Layer("serve.degraded_ratio", ratio(over_count.degraded), "ratio");
    if (ivf) {
      result.Layer("serve.quantize_ms", Median(quantize_ms), "ms");
      result.Layer("index.build_ms", Median(build_ms), "ms");
      std::vector<float> batch(queries.begin(), queries.begin() + kMaxBatch * kDim);
      result.Layer("index.retrieve_ms",
                   TimeMedianMs(recorder, "index.retrieve", -1, 20, [&] {
                     (void)state->ivf->Retrieve(batch.data(), kMaxBatch, kTopK);
                   }),
                   "ms");
      result.Layer("index.candidates_per_query",
                   registry.GetHistogram("index.candidates_per_query").Snapshot().mean,
                   "count");
      result.Layer("index.rerank_candidates",
                   registry.GetHistogram("quant.rerank_candidates").Snapshot().mean,
                   "count");
    } else {
      for (const char* name : {"serve.quantize_ms", "index.build_ms",
                               "index.retrieve_ms", "index.candidates_per_query",
                               "index.rerank_candidates"}) {
        result.unmeasured.emplace_back(
            name, "the exact workload serves fp32 rows by brute force; "
                  "nothing is quantized and no index is built");
      }
    }
    result.Layer("bench.gen_lag_ms_p99", Percentile(gen_lag_ms, 0.99), "ms");
  }
  fs::remove(path);
  return Median(setup_s);
}

}  // namespace perfbench
