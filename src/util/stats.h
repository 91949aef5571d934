#ifndef DBTUNE_UTIL_STATS_H_
#define DBTUNE_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace dbtune {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Sample variance (Bessel's n−1 divisor); 0 for fewer than two values.
double Variance(const std::vector<double>& values);

/// Sample standard deviation (sqrt of `Variance`).
double StdDev(const std::vector<double>& values);

/// Location and scale of a score history: the mean and the sample stddev,
/// with a stddev below 1e-12 replaced by 1 so constant scores stay finite.
/// {0, 1} for empty input.
struct ScoreMoments {
  double mean = 0.0;
  double sd = 1.0;
};
ScoreMoments ScoreMomentsOf(const std::vector<double>& scores);

/// Scores standardized by `ScoreMomentsOf` (mean 0, stddev 1). Optimizers
/// fit their surrogates in this z-space, and transfer frameworks compare
/// tasks on relative, not absolute, performance.
std::vector<double> StandardizeScores(const std::vector<double>& scores);

/// Linear-interpolated quantile, q in [0, 1]. Requires non-empty input.
double Quantile(std::vector<double> values, double q);

/// Median (Quantile 0.5).
double Median(const std::vector<double>& values);

/// Indices that would sort `values` ascending (stable).
std::vector<size_t> ArgSortAscending(const std::vector<double>& values);

/// Indices that would sort `values` descending (stable).
std::vector<size_t> ArgSortDescending(const std::vector<double>& values);

/// Fractional ranks (1 = smallest); ties get the average rank.
std::vector<double> Ranks(const std::vector<double>& values);

/// Pearson correlation; 0 when either side is constant.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Spearman rank correlation; 0 when either side is constant.
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/// Coefficient of determination of predictions vs. targets.
double RSquared(const std::vector<double>& truth,
                const std::vector<double>& predicted);

/// Root mean squared error of predictions vs. targets.
double Rmse(const std::vector<double>& truth,
            const std::vector<double>& predicted);

/// Intersection-over-union of two index sets (the paper's "similarity
/// score" for comparing top-k knob rankings). 1 when both are empty.
double IntersectionOverUnion(const std::vector<size_t>& a,
                             const std::vector<size_t>& b);

}  // namespace dbtune

#endif  // DBTUNE_UTIL_STATS_H_
