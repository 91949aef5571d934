#ifndef DBTUNE_UTIL_RANDOM_H_
#define DBTUNE_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "util/logging.h"

namespace dbtune {

/// Deterministic pseudo-random source. Every stochastic component in the
/// library takes an `Rng` (or a seed) explicitly so runs are reproducible.
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    DBTUNE_CHECK(lo <= hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Standard normal sample scaled to N(mean, stddev^2).
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Uniformly chosen index in [0, size).
  size_t Index(size_t size) {
    DBTUNE_CHECK(size > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(size) - 1));
  }

  /// Draws an index according to non-negative `weights` (need not sum to 1).
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = Index(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// A random permutation of 0..n-1.
  std::vector<size_t> Permutation(size_t n);

  /// `k` distinct indices sampled uniformly from [0, n). Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// The underlying engine, for std distributions not wrapped here.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dbtune

#endif  // DBTUNE_UTIL_RANDOM_H_
