#ifndef DBTUNE_KNOBS_CONFIGURATION_H_
#define DBTUNE_KNOBS_CONFIGURATION_H_

#include <string>
#include <vector>

namespace dbtune {

/// A point in a configuration space: one native-domain value per knob
/// (numeric value for continuous/integer knobs, category index for
/// categorical ones). Configurations are plain values: cheap to copy,
/// comparable, and independent of the space that produced them.
class Configuration {
 public:
  Configuration() = default;
  /// Wraps the given native-domain values.
  explicit Configuration(std::vector<double> values)
      : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }

  friend bool operator==(const Configuration& a, const Configuration& b) {
    return a.values_ == b.values_;
  }

  /// Compact debug form: "[v0, v1, ...]".
  std::string DebugString() const;

 private:
  std::vector<double> values_;
};

}  // namespace dbtune

#endif  // DBTUNE_KNOBS_CONFIGURATION_H_
