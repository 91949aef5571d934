// Tie-heavy training data for the tree and forest pins: snapped points of
// the paper's medium space (the first 20 MySQL knobs), where categorical
// and small integer knobs collapse onto a few encoded values, every fourth
// row repeats an earlier row, and targets sit on a coarse grid so many of
// them are equal. Ties are where a presorted grower and a per-node sort
// could disagree, so the pins are recorded on this data. The pins hash
// with `Fnv1a` and repeat at several pool sizes under `PoolSizeGuard`.

#ifndef DBTUNE_TESTS_TIE_HEAVY_DATA_H_
#define DBTUNE_TESTS_TIE_HEAVY_DATA_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "knobs/catalog.h"
#include "knobs/configuration_space.h"
#include "pool_size_guard.h"
#include "surrogate/regressor.h"
#include "util/random.h"

namespace dbtune {
namespace testing {

inline ConfigurationSpace MediumSpace() {
  std::vector<size_t> first(20);
  for (size_t i = 0; i < first.size(); ++i) first[i] = i;
  return MySqlKnobCatalog().Project(first);
}

struct TieHeavyData {
  FeatureMatrix x;
  std::vector<double> y;
};

inline TieHeavyData MakeTieHeavyData(size_t n, uint64_t seed) {
  const ConfigurationSpace space = MediumSpace();
  Rng rng(seed);
  TieHeavyData data;
  for (size_t i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      // A duplicate row; every other one also keeps its source's target.
      const size_t source = rng.Index(i);
      data.x.push_back(data.x[source]);
      data.y.push_back(i % 8 == 7 ? data.y[source] : data.y[source] + 0.1);
      continue;
    }
    std::vector<double> unit(space.dimension());
    for (double& v : unit) v = rng.Uniform();
    data.x.push_back(space.SnapUnit(unit));
    double s = 0.0;
    for (size_t j = 0; j < data.x.back().size(); ++j) {
      s += std::sin(3.0 * data.x.back()[j]) * static_cast<double>(j % 3);
    }
    // A coarse grid of non-dyadic values: equal targets repeat, and sums
    // of them round differently in different orders.
    data.y.push_back(0.1 * std::round(s * 2.0) + 0.3);
  }
  return data;
}

/// 64-bit FNV-1a over the bit patterns of the values fed to it.
class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace testing
}  // namespace dbtune

#endif  // DBTUNE_TESTS_TIE_HEAVY_DATA_H_
