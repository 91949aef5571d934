#include "importance/lasso.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/matrix.h"
#include "util/stats.h"

namespace dbtune {

namespace {
/// Regularization as a fraction of lambda_max (the smallest lambda that
/// zeroes every coefficient).
constexpr double kLambdaFraction = 0.01;
constexpr size_t kMaxSweeps = 120;
constexpr double kTolerance = 1e-6;
/// Cross terms are built among the `kMaxCrossFeatures` knobs most
/// correlated with the target (the full degree-2 expansion of 197 knobs
/// would need ~19k columns; OtterTune's datasets are narrower after its
/// pre-pruning, so this cap preserves the method at our scale).
constexpr size_t kMaxCrossFeatures = 40;
}  // namespace

LassoImportance::LassoImportance(uint64_t seed) : seed_(seed) {}

Result<std::vector<double>> LassoImportance::Rank(
    const ImportanceInput& input) {
  DBTUNE_RETURN_IF_ERROR(ValidateTrainingData(input.unit_x, input.scores));
  (void)seed_;  // deterministic; kept for interface symmetry
  const size_t n = input.unit_x.size();
  const size_t d = input.unit_x.front().size();

  // --- Build the degree-2 feature set: linear, squares, capped cross
  // terms. Each column remembers the knob(s) it involves.
  struct Term {
    int a;
    int b;  // -1 for linear/square terms' second slot
  };
  std::vector<Term> terms;
  terms.reserve(2 * d + kMaxCrossFeatures * (kMaxCrossFeatures - 1) / 2);
  for (size_t j = 0; j < d; ++j) terms.push_back({static_cast<int>(j), -1});
  for (size_t j = 0; j < d; ++j) {
    terms.push_back({static_cast<int>(j), static_cast<int>(j)});
  }

  // Rank knobs by |correlation| with the target to pick cross-term
  // participants.
  std::vector<double> corr(d, 0.0);
  {
    std::vector<double> column(n);
    for (size_t j = 0; j < d; ++j) {
      for (size_t i = 0; i < n; ++i) column[i] = input.unit_x[i][j];
      corr[j] = std::abs(PearsonCorrelation(column, input.scores));
    }
  }
  std::vector<size_t> cross = ArgSortDescending(corr);
  if (cross.size() > kMaxCrossFeatures) {
    cross.resize(kMaxCrossFeatures);
  }
  for (size_t p = 0; p < cross.size(); ++p) {
    for (size_t q = p + 1; q < cross.size(); ++q) {
      terms.push_back(
          {static_cast<int>(cross[p]), static_cast<int>(cross[q])});
    }
  }
  const size_t m = terms.size();

  // --- Materialize standardized columns.
  FeatureMatrix columns(m, std::vector<double>(n));
  for (size_t t = 0; t < m; ++t) {
    for (size_t i = 0; i < n; ++i) {
      const double va = input.unit_x[i][static_cast<size_t>(terms[t].a)];
      columns[t][i] =
          terms[t].b < 0
              ? va
              : va * input.unit_x[i][static_cast<size_t>(terms[t].b)];
    }
    const ScoreMoments moments = ScoreMomentsOf(columns[t]);
    for (double& v : columns[t]) v = (v - moments.mean) / moments.sd;
  }
  const ScoreMoments y_moments = ScoreMomentsOf(input.scores);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (input.scores[i] - y_moments.mean) / y_moments.sd;
  }

  // --- Coordinate descent. With standardized columns, each column's
  // squared norm is n.
  std::vector<double> beta(m, 0.0);
  std::vector<double> residual = y;
  double lambda_max = 0.0;
  for (size_t t = 0; t < m; ++t) {
    lambda_max = std::max(lambda_max, std::abs(Dot(columns[t], y)));
  }
  const double lambda = kLambdaFraction * lambda_max;
  const double norm_sq = static_cast<double>(n);

  for (size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double max_change = 0.0;
    for (size_t t = 0; t < m; ++t) {
      const double rho = Dot(columns[t], residual) + beta[t] * norm_sq;
      double next = 0.0;
      if (rho > lambda) {
        next = (rho - lambda) / norm_sq;
      } else if (rho < -lambda) {
        next = (rho + lambda) / norm_sq;
      }
      const double delta = next - beta[t];
      if (delta != 0.0) {
        for (size_t i = 0; i < n; ++i) residual[i] -= delta * columns[t][i];
        beta[t] = next;
        max_change = std::max(max_change, std::abs(delta));
      }
    }
    if (max_change < kTolerance) break;
  }

  // Held-out R^2: refit the same lasso on 75% of the rows and score the
  // remaining 25% (the Figure 4 validation metric; with ~2d polynomial
  // columns the training fit is uninformative).
  {
    Rng split_rng(seed_ ^ 0xF01D);
    std::vector<size_t> order = split_rng.Permutation(n);
    const size_t train_count = (3 * n) / 4;
    std::vector<size_t> train(order.begin(),
                              order.begin() + static_cast<long>(train_count));
    std::vector<size_t> test(order.begin() + static_cast<long>(train_count),
                             order.end());

    std::vector<double> beta_cv(m, 0.0);
    std::vector<double> residual_cv(train.size());
    for (size_t i = 0; i < train.size(); ++i) residual_cv[i] = y[train[i]];
    std::vector<double> col(train.size());
    for (size_t sweep = 0; sweep < kMaxSweeps / 2; ++sweep) {
      double max_change = 0.0;
      for (size_t t = 0; t < m; ++t) {
        double norm_cv = 0.0, rho = 0.0;
        for (size_t i = 0; i < train.size(); ++i) {
          col[i] = columns[t][train[i]];
          norm_cv += col[i] * col[i];
          rho += col[i] * residual_cv[i];
        }
        if (norm_cv < 1e-12) continue;
        rho += beta_cv[t] * norm_cv;
        const double lambda_cv = lambda * norm_cv / norm_sq;
        double next = 0.0;
        if (rho > lambda_cv) {
          next = (rho - lambda_cv) / norm_cv;
        } else if (rho < -lambda_cv) {
          next = (rho + lambda_cv) / norm_cv;
        }
        const double delta = next - beta_cv[t];
        if (delta != 0.0) {
          for (size_t i = 0; i < train.size(); ++i) {
            residual_cv[i] -= delta * col[i];
          }
          beta_cv[t] = next;
          max_change = std::max(max_change, std::abs(delta));
        }
      }
      if (max_change < kTolerance) break;
    }
    std::vector<double> truth, predicted;
    for (size_t i : test) {
      double pred = 0.0;
      for (size_t t = 0; t < m; ++t) {
        if (beta_cv[t] != 0.0) pred += beta_cv[t] * columns[t][i];
      }
      truth.push_back(y[i]);
      predicted.push_back(pred);
    }
    last_r_squared_ = RSquared(truth, predicted);
  }

  // --- Importance: max |coefficient| among terms involving the knob.
  std::vector<double> importance(d, 0.0);
  for (size_t t = 0; t < m; ++t) {
    const double magnitude = std::abs(beta[t]);
    importance[static_cast<size_t>(terms[t].a)] =
        std::max(importance[static_cast<size_t>(terms[t].a)], magnitude);
    if (terms[t].b >= 0) {
      importance[static_cast<size_t>(terms[t].b)] =
          std::max(importance[static_cast<size_t>(terms[t].b)], magnitude);
    }
  }
  return importance;
}

}  // namespace dbtune
