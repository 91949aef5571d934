#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/logging.h"

namespace dbtune {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  // Sample (Bessel-corrected) variance: every consumer treats the input
  // as a sample — TPE's Scott bandwidth, score standardization, the
  // forest's cross-tree predictive variance — so dividing by n would
  // systematically understate spread (badly so at the n=2..10 sizes the
  // tuning loop actually sees).
  return acc / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

ScoreMoments ScoreMomentsOf(const std::vector<double>& scores) {
  ScoreMoments moments;
  if (scores.empty()) return moments;
  moments.mean = Mean(scores);
  moments.sd = StdDev(scores);
  if (moments.sd < 1e-12) moments.sd = 1.0;
  return moments;
}

std::vector<double> StandardizeScores(const std::vector<double>& scores) {
  const ScoreMoments moments = ScoreMomentsOf(scores);
  std::vector<double> out = scores;
  for (double& v : out) v = (v - moments.mean) / moments.sd;
  return out;
}

double Quantile(std::vector<double> values, double q) {
  DBTUNE_CHECK(!values.empty());
  DBTUNE_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::vector<size_t> ArgSortAscending(const std::vector<double>& values) {
  std::vector<size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return values[a] < values[b]; });
  return idx;
}

std::vector<size_t> ArgSortDescending(const std::vector<double>& values) {
  std::vector<size_t> idx(values.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return values[a] > values[b]; });
  return idx;
}

std::vector<double> Ranks(const std::vector<double>& values) {
  const std::vector<size_t> order = ArgSortAscending(values);
  std::vector<double> ranks(values.size(), 0.0);
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           values[order[j + 1]] == values[order[i]]) {
      ++j;
    }
    // Average rank for the tie group [i, j].
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0
                       + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  DBTUNE_CHECK(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = Mean(a);
  const double mb = Mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da <= 0.0 || db <= 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  return PearsonCorrelation(Ranks(a), Ranks(b));
}

double RSquared(const std::vector<double>& truth,
                const std::vector<double>& predicted) {
  DBTUNE_CHECK(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  const double m = Mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  if (ss_tot <= 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double Rmse(const std::vector<double>& truth,
            const std::vector<double>& predicted) {
  DBTUNE_CHECK(truth.size() == predicted.size());
  if (truth.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    acc += (truth[i] - predicted[i]) * (truth[i] - predicted[i]);
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

double IntersectionOverUnion(const std::vector<size_t>& a,
                             const std::vector<size_t>& b) {
  std::set<size_t> sa(a.begin(), a.end());
  std::set<size_t> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (size_t v : sa) inter += sb.count(v);
  const size_t uni = sa.size() + sb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace dbtune
