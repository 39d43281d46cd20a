#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace ds = desalign;

uint64_t Digest(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DigestFloats(const std::vector<float>& v, uint64_t h) {
  return Digest(v.data(), v.size() * sizeof(float), h);
}

uint64_t DigestTopK(const std::vector<ds::serve::TopKResult>& results,
                    uint64_t h) {
  for (const auto& r : results) {
    h = Digest(r.ids.data(), r.ids.size() * sizeof(int64_t), h);
    h = Digest(r.scores.data(), r.scores.size() * sizeof(float), h);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

CheckResult CheckFiniteLoss(double loss) {
  CheckResult r{"finite_loss", std::isfinite(loss), ""};
  std::ostringstream os;
  os << "final loss " << loss;
  r.detail = os.str();
  return r;
}

CheckResult CheckNoRollbacks(int64_t rollbacks, int64_t nonfinite_skips) {
  CheckResult r{"no_rollbacks", rollbacks == 0 && nonfinite_skips == 0, ""};
  r.detail = std::to_string(rollbacks) + " rollbacks, " +
             std::to_string(nonfinite_skips) + " non-finite skips";
  return r;
}

CheckResult CheckIdenticalTopK(
    const std::string& name, const std::vector<ds::serve::TopKResult>& got,
    const std::vector<ds::serve::TopKResult>& want) {
  CheckResult r{name, true, ""};
  if (got.size() != want.size()) {
    r.pass = false;
    r.detail = "result count " + std::to_string(got.size()) + " vs " +
               std::to_string(want.size());
    return r;
  }
  int64_t mismatched = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    const bool same =
        a.ids == b.ids && a.scores.size() == b.scores.size() &&
        std::memcmp(a.scores.data(), b.scores.data(),
                    a.scores.size() * sizeof(float)) == 0;
    if (!same) ++mismatched;
  }
  r.pass = mismatched == 0;
  r.detail = std::to_string(mismatched) + " of " + std::to_string(got.size()) +
             " sampled results differ";
  return r;
}

double RecallAtK(const std::vector<ds::serve::TopKResult>& got,
                 const std::vector<ds::serve::TopKResult>& truth) {
  if (got.empty() || got.size() != truth.size()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& t = truth[i].ids;
    if (t.empty()) continue;
    int64_t hit = 0;
    for (const int64_t id : got[i].ids) {
      if (std::find(t.begin(), t.end(), id) != t.end()) ++hit;
    }
    total += static_cast<double>(hit) / static_cast<double>(t.size());
  }
  return total / static_cast<double>(got.size());
}

CheckResult CheckRecallFloor(const std::string& name, double recall,
                             double floor) {
  CheckResult r{name, recall >= floor, ""};
  std::ostringstream os;
  os << "recall@10 " << recall << " vs floor " << floor;
  r.detail = os.str();
  return r;
}

ds::align::RankingMetrics NaiveRankMetrics(const ds::tensor::Tensor& sim) {
  ds::align::RankingMetrics m;
  const int64_t n = sim.rows();
  m.num_queries = n;
  for (int64_t i = 0; i < n; ++i) {
    int64_t above = 0;
    for (int64_t j = 0; j < n; ++j) {
      if (j != i && sim.At(i, j) > sim.At(i, i)) ++above;
    }
    const int64_t rank = above + 1;
    m.h_at_1 += rank <= 1 ? 1.0 : 0.0;
    m.h_at_5 += rank <= 5 ? 1.0 : 0.0;
    m.h_at_10 += rank <= 10 ? 1.0 : 0.0;
    m.mrr += 1.0 / static_cast<double>(rank);
  }
  if (n > 0) {
    m.h_at_1 /= static_cast<double>(n);
    m.h_at_5 /= static_cast<double>(n);
    m.h_at_10 /= static_cast<double>(n);
    m.mrr /= static_cast<double>(n);
  }
  return m;
}

ds::tensor::TensorPtr SampleSquare(const ds::tensor::Tensor& sim,
                                   const std::vector<int64_t>& idx) {
  const auto n = static_cast<int64_t>(idx.size());
  auto out = ds::tensor::Tensor::Create(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) out->At(i, j) = sim.At(idx[i], idx[j]);
  }
  return out;
}

CheckResult CheckRankMetrics(const std::string& name,
                             const ds::tensor::Tensor& sim,
                             const ds::align::RankingMetrics& reported) {
  const ds::align::RankingMetrics naive = NaiveRankMetrics(sim);
  // Both sides divide the same integer hit counts by the same n, and the
  // MRR terms are summed in the same row order, so agreement is exact up
  // to a last-ulp tolerance.
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
  };
  CheckResult r{name, true, ""};
  r.pass = reported.num_queries == naive.num_queries &&
           close(reported.h_at_1, naive.h_at_1) &&
           close(reported.h_at_5, naive.h_at_5) &&
           close(reported.h_at_10, naive.h_at_10) &&
           close(reported.mrr, naive.mrr);
  std::ostringstream os;
  os << "H@1 " << reported.h_at_1 << " vs naive " << naive.h_at_1 << ", MRR "
     << reported.mrr << " vs naive " << naive.mrr << " over "
     << naive.num_queries << " sampled rows";
  r.detail = os.str();
  return r;
}

CheckResult CheckSameDigest(const std::string& name, uint64_t first,
                            uint64_t again) {
  return CheckResult{name, first == again, Hex(first) + " vs " + Hex(again)};
}

CheckResult CheckZero(const std::string& name, int64_t count) {
  return CheckResult{name, count == 0, std::to_string(count)};
}

}  // namespace perfbench
