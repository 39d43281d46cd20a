// The benchmark's own tests: statistics, span arithmetic, seeded
// schedules, request accounting, and every correctness check firing on a
// deliberately corrupted output. Run with `python3 perfbench/run.py
// --selftest`.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "align/metrics.h"
#include "checks.h"
#include "obs/metrics.h"
#include "open_loop.h"
#include "report.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace ds = desalign;

// ---- Percentiles ----

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({10}, 0.99), 10.0);
  EXPECT_TRUE(std::isnan(Percentile({}, 0.5)));
  // rank 0.9 * 10 = 9 → the 10th order statistic exactly.
  EXPECT_DOUBLE_EQ(Percentile({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.0);
}

TEST(Percentile, AgreesWithObsHistogramWithinOneBucket) {
  // Same rank definition (q * (n - 1)); obs interpolates inside a bucket,
  // so the two agree to within the width of the bucket holding the rank.
  const std::vector<double> bounds =
      ds::obs::Histogram::ExponentialBuckets(0.01, 1.01, 1500);
  uint64_t state = 7;
  std::vector<double> values;
  ds::obs::Histogram hist(bounds);
  for (int i = 0; i < 5000; ++i) {
    const double v = 0.5 + 40.0 * UnitUniform(state) * UnitUniform(state);
    values.push_back(v);
    hist.Record(v);
  }
  const ds::obs::HistogramSnapshot snap = hist.Snapshot();
  for (const double q : {0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double ours = Percentile(values, q);
    EXPECT_NEAR(snap.Quantile(q), ours, ours * 0.011) << "q=" << q;
  }
}

TEST(Percentile, MatchesObsHistogramExactlyOnDegenerateInputs) {
  ds::obs::Histogram one;
  one.Record(3.25);
  EXPECT_DOUBLE_EQ(one.Snapshot().Quantile(0.99), Percentile({3.25}, 0.99));
  ds::obs::Histogram dup;
  for (int i = 0; i < 100; ++i) dup.Record(7.5);
  EXPECT_DOUBLE_EQ(dup.Snapshot().Quantile(0.5),
                   Percentile(std::vector<double>(100, 7.5), 0.5));
}

TEST(TailQuantile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(40), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(39), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailQuantile(5), 0.5);
  EXPECT_STREQ(QuantileLabel(TailQuantile(40)), "p75");
}

// ---- Spans ----

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  EXPECT_EQ(SelfTimeNs(0, 100, {}), 100);
  // Overlapping children [10,30) and [20,50) cover 40; [90,120) sticks out
  // and covers only 10 inside the parent.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 30}, {20, 50}, {90, 120}}), 50);
  EXPECT_EQ(SelfTimeNs(0, 100, {{-5, 200}}), 0);
  EXPECT_EQ(SelfTimeNs(0, 100, {{40, 60}, {40, 60}}), 80);
  EXPECT_EQ(SelfTimeNs(50, 40, {}), 0);
}

TEST(SpanRecorder, RecordsTreeAndSelfTimes) {
  SpanRecorder rec(true);
  const int64_t root = rec.Add("root", -1, 3, 0, 1'000'000);
  rec.Add("child", root, 3, 100'000, 400'000);
  rec.Add("child", root, 3, 300'000, 600'000);
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].request, 3);
  EXPECT_EQ(SelfTimeNs(spans[0].start_ns, spans[0].end_ns,
                       {{spans[1].start_ns, spans[1].end_ns},
                        {spans[2].start_ns, spans[2].end_ns}}),
            500'000);
  const int64_t open = rec.Begin("open");
  rec.End(open);
  EXPECT_GE(rec.spans()[static_cast<size_t>(open)].end_ns,
            rec.spans()[static_cast<size_t>(open)].start_ns);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  EXPECT_EQ(rec.Begin("x"), -1);
  rec.End(-1);
  EXPECT_EQ(rec.Add("y", -1, -1, 0, 1), -1);
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.overhead_seconds(), 0.0);
}

// ---- Seeded inputs ----

TEST(Schedule, SameSeedGivesTheSameArrivals) {
  const ArrivalSchedule a = PoissonSchedule(42, 2000.0, 1.5, 4096);
  const ArrivalSchedule b = PoissonSchedule(42, 2000.0, 1.5, 4096);
  ASSERT_FALSE(a.due_s.empty());
  EXPECT_EQ(a.due_s, b.due_s);
  EXPECT_EQ(a.query, b.query);
  const ArrivalSchedule c = PoissonSchedule(43, 2000.0, 1.5, 4096);
  EXPECT_NE(a.due_s, c.due_s);
}

TEST(Schedule, PoissonRateAndQueryCycling) {
  const ArrivalSchedule s = PoissonSchedule(9, 5000.0, 2.0, 4096);
  EXPECT_NEAR(static_cast<double>(s.due_s.size()), 10000.0, 400.0);
  for (size_t i = 1; i < s.due_s.size(); ++i) {
    ASSERT_GT(s.due_s[i], s.due_s[i - 1]);
    ASSERT_EQ(s.query[i], (s.query[i - 1] + 1) % 4096);
  }
  EXPECT_LT(s.due_s.back(), 2.0);
}

TEST(Schedule, SampleIndicesAreSeededDistinctAndSorted) {
  const auto a = SampleIndices(5, 1000, 100);
  EXPECT_EQ(a, SampleIndices(5, 1000, 100));
  EXPECT_EQ(std::set<int64_t>(a.begin(), a.end()).size(), 100u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(SampleIndices(5, 10, 50).size(), 10u);
}

TEST(RequestIdentity, MapsAQueryRowBackToItsRequest) {
  RequestIdentity id;
  id.pool = 16;
  id.offset = 5;
  id.newest = 30;  // request 30 asks row (5 + 30) % 16 = 3
  EXPECT_EQ(id.RequestOf(3), 30);
  EXPECT_EQ(id.RequestOf(2), 29);
  EXPECT_EQ(id.RequestOf(4), 15);  // the newest request that asked row 4
}

// ---- Accounting ----

RequestRecord Rec(double due_ms, double done_ms, ds::serve::ServeStatus st) {
  RequestRecord r;
  r.due_ns = static_cast<int64_t>(due_ms * 1e6);
  r.submit_ns = r.due_ns;
  r.done_ns = static_cast<int64_t>(done_ms * 1e6);
  r.status = st;
  return r;
}

TEST(Accounting, LateAndRefusedAnswersCountAsFailed) {
  using ds::serve::ServeStatus;
  OpenLoopResult run;
  run.requests = {Rec(0, 5, ServeStatus::kOk), Rec(0, 70, ServeStatus::kOk),
                  Rec(0, 1, ServeStatus::kRejectedQueueFull),
                  Rec(0, 2, ServeStatus::kDeadlineExceeded),
                  Rec(0, 1, ServeStatus::kInvalidQuery)};
  const PhaseCount p = CountPhase("x", 100.0, run, 50.0);
  EXPECT_EQ(p.attempted, 5);
  EXPECT_EQ(p.ok_on_time, 1);
  EXPECT_EQ(p.late, 1);
  EXPECT_EQ(p.failed(), 4);
  const auto lat = LatenciesMs(run, 50.0);
  EXPECT_DOUBLE_EQ(lat[0], 5.0);
  EXPECT_DOUBLE_EQ(lat[1], 70.0);
  EXPECT_DOUBLE_EQ(lat[2], 51.0);  // refused: limit + time to resolution
  EXPECT_DOUBLE_EQ(lat[3], 52.0);
  for (size_t i = 1; i < lat.size(); ++i) EXPECT_GT(lat[i], 50.0);

  WorkloadResult result;
  result.phases.push_back(p);
  result.phases.push_back(p);
  result.attempted = 2;
  result.failed = 1;
  EXPECT_EQ(result.RequestsAttempted(), 10);
  EXPECT_EQ(result.RequestsFailed(), 8);
  // The result line carries the operations, not the requests.
  EXPECT_NE(FinalLine(result, false).find("\"attempted\":2,\"failed\":1"),
            std::string::npos);
}

TEST(Accounting, RungNeedsTailWithinLimitAndNoGrowingBacklog) {
  using ds::serve::ServeStatus;
  OpenLoopResult ok;
  for (int i = 0; i < 200; ++i) ok.requests.push_back(Rec(i, i + 3, ServeStatus::kOk));
  ok.backlog.assign(200, 4);
  EXPECT_TRUE(RungPasses(ok, 50.0, 64));

  OpenLoopResult refused = ok;
  for (int i = 0; i < 5; ++i) refused.requests[i].status = ServeStatus::kRejectedQueueFull;
  EXPECT_FALSE(RungPasses(refused, 50.0, 64));

  OpenLoopResult growing = ok;
  for (int i = 0; i < 200; ++i) growing.backlog[i] = i;
  EXPECT_FALSE(RungPasses(growing, 50.0, 64));
}

TEST(Accounting, WindowedPercentileIsTheMedianOverWindows) {
  using ds::serve::ServeStatus;
  OpenLoopResult run;
  // Three 100 ms windows of 50 requests: 2 ms, 4 ms, and a stalled window
  // at 40 ms. The phase p99 is the stall; the windowed p99 is 4 ms.
  for (int w = 0; w < 3; ++w) {
    const double ms = w == 0 ? 2.0 : w == 1 ? 4.0 : 40.0;
    for (int i = 0; i < 50; ++i) {
      const double due = 100.0 * w + 2.0 * i;
      run.requests.push_back(Rec(due, due + ms, ServeStatus::kOk));
    }
  }
  EXPECT_DOUBLE_EQ(Percentile(LatenciesMs(run, 50.0), 0.99), 40.0);
  EXPECT_DOUBLE_EQ(WindowedPercentile(run, 50.0, 0.99, 0.1), 4.0);
  // Too few requests per window: the whole phase's percentile.
  EXPECT_DOUBLE_EQ(WindowedPercentile(run, 50.0, 0.99, 0.001), 40.0);
}

// ---- Correctness checks fire on corrupted outputs ----

TEST(Checks, FiniteLoss) {
  EXPECT_TRUE(CheckFiniteLoss(0.25).pass);
  EXPECT_FALSE(CheckFiniteLoss(std::numeric_limits<double>::quiet_NaN()).pass);
  EXPECT_FALSE(CheckFiniteLoss(std::numeric_limits<double>::infinity()).pass);
}

TEST(Checks, NoRollbacks) {
  EXPECT_TRUE(CheckNoRollbacks(0, 0).pass);
  EXPECT_FALSE(CheckNoRollbacks(1, 0).pass);
  EXPECT_FALSE(CheckNoRollbacks(0, 2).pass);
}

std::vector<ds::serve::TopKResult> SomeTopK() {
  std::vector<ds::serve::TopKResult> out(3);
  for (int q = 0; q < 3; ++q) {
    for (int j = 0; j < 10; ++j) {
      out[q].ids.push_back(q * 100 + j);
      out[q].scores.push_back(1.0f - 0.01f * static_cast<float>(j));
    }
  }
  return out;
}

TEST(Checks, IdenticalTopKCatchesOneFlippedScoreBit) {
  const auto want = SomeTopK();
  EXPECT_TRUE(CheckIdenticalTopK("t", want, want).pass);
  auto got = want;
  uint32_t bits = 0;
  std::memcpy(&bits, &got[1].scores[4], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&got[1].scores[4], &bits, sizeof(bits));
  EXPECT_FALSE(CheckIdenticalTopK("t", got, want).pass);
  auto swapped = want;
  std::swap(swapped[2].ids[0], swapped[2].ids[1]);
  EXPECT_FALSE(CheckIdenticalTopK("t", swapped, want).pass);
  EXPECT_FALSE(CheckIdenticalTopK("t", {}, want).pass);
}

TEST(Checks, RecallFloorCatchesWrongIds) {
  const auto truth = SomeTopK();
  EXPECT_DOUBLE_EQ(RecallAtK(truth, truth), 1.0);
  EXPECT_TRUE(CheckRecallFloor("r", RecallAtK(truth, truth), 1.0).pass);
  auto got = truth;
  got[0].ids[9] = 99999;  // one miss in 30 → recall 29/30
  const double recall = RecallAtK(got, truth);
  EXPECT_NEAR(recall, 29.0 / 30.0, 1e-12);
  EXPECT_FALSE(CheckRecallFloor("r", recall, 1.0).pass);
  EXPECT_TRUE(CheckRecallFloor("r", recall, 0.9).pass);
}

TEST(Checks, RankMetricsCrossCheckCatchesAWrongCount) {
  uint64_t state = 3;
  auto sim = ds::tensor::Tensor::Create(64, 64);
  for (float& v : sim->data()) v = static_cast<float>(UnitUniform(state));
  for (int i = 0; i < 64; i += 2) sim->At(i, i) = 2.0f;  // half are hits
  const auto reported = ds::align::MetricsFromSimilarity(*sim);
  EXPECT_TRUE(CheckRankMetrics("m", *sim, reported).pass);
  auto corrupted = reported;
  corrupted.h_at_1 += 1.0 / 64.0;
  EXPECT_FALSE(CheckRankMetrics("m", *sim, corrupted).pass);
  corrupted = reported;
  corrupted.mrr *= 1.001;
  EXPECT_FALSE(CheckRankMetrics("m", *sim, corrupted).pass);

  const auto sub = SampleSquare(*sim, {0, 2, 5});
  EXPECT_EQ(sub->At(1, 1), sim->At(2, 2));
  EXPECT_EQ(sub->At(2, 0), sim->At(5, 0));
}

TEST(Checks, DigestCatchesOneChangedValue) {
  std::vector<float> out(1000, 0.5f);
  const uint64_t first = DigestFloats(out);
  EXPECT_TRUE(CheckSameDigest("d", first, DigestFloats(out)).pass);
  out[777] = std::nextafter(out[777], 1.0f);
  EXPECT_FALSE(CheckSameDigest("d", first, DigestFloats(out)).pass);
  EXPECT_NE(DigestTopK(SomeTopK()), kFnvOffset);
}

TEST(Checks, ZeroCount) {
  EXPECT_TRUE(CheckZero("z", 0).pass);
  EXPECT_FALSE(CheckZero("z", 1).pass);
}

// ---- Result line ----

TEST(FinalLine, FailedCheckReportsTheFailureInsteadOfNumbers) {
  WorkloadResult r;
  r.E2e("setup_s", 1.5, "s");
  r.Layer("kg.generate_ms", 2.0, "ms");
  r.attempted = 3;
  r.Check({"ok", true, ""});
  EXPECT_EQ(FinalLine(r, false),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
            "{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}}");
  EXPECT_EQ(FinalLine(r, true),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
            "{\"kg.generate_ms\":{\"value\":2,\"unit\":\"ms\"}}}");
  r.Check({"broken", false, "corrupted"});
  EXPECT_EQ(FinalLine(r, false),
            "{\"correct\":false,\"attempted\":3,\"failed\":0,\"metrics\":{}}");
}

TEST(FinalLine, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(JsonNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

}  // namespace
}  // namespace perfbench
