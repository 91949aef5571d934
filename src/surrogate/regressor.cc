#include "surrogate/regressor.h"

#include <cmath>

#include "util/thread_pool.h"

namespace dbtune {

void Regressor::PredictMeanVarBatch(const FeatureMatrix& xs,
                                    std::vector<double>* means,
                                    std::vector<double>* variances) const {
  means->resize(xs.size());
  variances->resize(xs.size());
  // Tiny batches (single-query acquisition probes) skip the dispatch
  // entirely: GlobalPool() takes a lock per call, which dwarfs a handful
  // of scalar posterior queries. Same arithmetic, same results.
  if (xs.size() < 8) {
    for (size_t q = 0; q < xs.size(); ++q) {
      PredictMeanVar(xs[q], &(*means)[q], &(*variances)[q]);
    }
    return;
  }
  ParallelFor(GlobalPool(), 0, xs.size(), /*grain=*/16,
              [&](size_t begin, size_t end) {
                for (size_t q = begin; q < end; ++q) {
                  PredictMeanVar(xs[q], &(*means)[q], &(*variances)[q]);
                }
              });
}

Status ValidateTrainingData(const FeatureMatrix& x,
                            const std::vector<double>& y) {
  if (x.empty()) return Status::InvalidArgument("empty training set");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("x/y size mismatch");
  }
  const size_t width = x.front().size();
  if (width == 0) return Status::InvalidArgument("zero-width features");
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != width) {
      return Status::InvalidArgument("ragged feature matrix");
    }
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument("non-finite training target");
    }
    for (double v : x[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite training feature");
      }
    }
  }
  return Status::OK();
}

}  // namespace dbtune
