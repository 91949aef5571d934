#ifndef DBTUNE_KNOBS_CONFIGURATION_SPACE_H_
#define DBTUNE_KNOBS_CONFIGURATION_SPACE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "knobs/configuration.h"
#include "knobs/knob.h"
#include "util/random.h"
#include "util/status.h"

namespace dbtune {

/// The Cartesian product of knob domains (the paper's Θ = Θ1 × ... × Θm).
/// Provides sampling, unit-cube encoding for optimizers, validation, and
/// projection onto knob subsets (the output of knob selection).
class ConfigurationSpace {
 public:
  ConfigurationSpace() = default;
  /// Builds a space from an ordered list of knobs. Names must be unique.
  explicit ConfigurationSpace(std::vector<Knob> knobs);

  size_t dimension() const { return knobs_.size(); }
  const Knob& knob(size_t i) const { return knobs_[i]; }
  const std::vector<Knob>& knobs() const { return knobs_; }

  /// Index of the knob named `name`; NotFound when absent.
  [[nodiscard]] Result<size_t> KnobIndex(const std::string& name) const;

  /// The DBMS default configuration (every knob at its default).
  Configuration Default() const;

  /// Uniform sample: each knob drawn independently over its (encoded)
  /// domain.
  Configuration SampleUniform(Rng& rng) const;

  /// Encodes a configuration into [0,1]^d.
  std::vector<double> ToUnit(const Configuration& config) const;

  /// Decodes a [0,1]^d point into a valid configuration (values clipped,
  /// integers rounded, categories snapped).
  Configuration FromUnit(const std::vector<double>& unit) const;

  /// Snaps a [0,1]^d point onto the encoded grid of realizable
  /// configurations — bitwise identical to `ToUnit(FromUnit(unit))` but
  /// without materializing the intermediate Configuration.
  std::vector<double> SnapUnit(const std::vector<double>& unit) const;

  /// Clamps every value into its knob's domain.
  Configuration Clip(const Configuration& config) const;

  /// OK when `config` has the right arity and every value is in-domain.
  [[nodiscard]] Status Validate(const Configuration& config) const;

  /// `mask[i]` is true when knob i is categorical (the mixed kernel's
  /// input).
  std::vector<bool> CategoricalMask() const;

  /// The subspace spanned by `indices` (in the given order).
  ConfigurationSpace Project(const std::vector<size_t>& indices) const;

 private:
  std::vector<Knob> knobs_;
  std::unordered_map<std::string, size_t> index_by_name_;
};

}  // namespace dbtune

#endif  // DBTUNE_KNOBS_CONFIGURATION_SPACE_H_
