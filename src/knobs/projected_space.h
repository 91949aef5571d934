#ifndef DBTUNE_KNOBS_PROJECTED_SPACE_H_
#define DBTUNE_KNOBS_PROJECTED_SPACE_H_

#include <cstdint>
#include <vector>

#include "knobs/configuration_space.h"

namespace dbtune {

/// Parameters of the HeSBO-style sparse random projection.
struct ProjectionOptions {
  /// Dimension of the low-dimensional unit box the optimizer searches.
  size_t dims = 16;
  /// Seeds the hash/sign draws; the same seed always yields the same
  /// embedding.
  uint64_t seed = 1;
  /// Fraction of each projected coordinate's range reserved for the
  /// knob's default ("special") value — LlamaTune's biased sampling,
  /// which keeps knobs whose special value is load-bearing (e.g. "off",
  /// "auto") reachable despite the projection. Clamped to [0, 0.95].
  double special_value_bias = 0.2;
};

/// HeSBO-style sparse random embedding of a configuration space
/// (LlamaTune, arXiv 2203.05128): every knob i is assigned one target
/// dimension h(i) and a sign s(i) by a seeded hash, and a point z in the
/// D-dimensional unit box decodes to the full space by reading knob i
/// from coordinate h(i) (mirrored when s(i) < 0). An optimizer searches
/// `box()` — D continuous unit knobs — while the DBMS is always driven
/// with full configurations.
///
/// Decoded points are snapped through the full space's `SnapUnit`, so
/// `DecodeUnit` is exact under round-tripping: the returned unit point
/// is on the realizable-configuration grid and re-encoding the decoded
/// configuration reproduces it bitwise.
class ProjectedConfigurationSpace {
 public:
  /// Builds the embedding of `full`. The full space must outlive this
  /// view. Requires 0 < dims; dims may exceed the full dimension (the
  /// embedding then wastes coordinates but stays correct).
  ProjectedConfigurationSpace(const ConfigurationSpace* full,
                              ProjectionOptions options);

  /// The D-dimensional continuous unit box the optimizer searches.
  const ConfigurationSpace& box() const { return box_; }
  size_t dims() const { return options_.dims; }
  const ProjectionOptions& options() const { return options_; }

  /// Target dimension of knob `i` in the low-dimensional box.
  size_t target_dim(size_t i) const { return target_[i]; }
  /// Sign of knob `i`'s embedding (+1 or −1).
  double sign(size_t i) const { return sign_[i]; }

  /// Decodes a point of the low-dimensional unit box into a full-space
  /// unit point on the realizable grid (already snapped: applying the
  /// full space's `SnapUnit` to the result is the identity).
  std::vector<double> DecodeUnit(const std::vector<double>& z) const;

  /// Decodes a point of the low-dimensional unit box into a full-space
  /// configuration; `ToUnit` of the result equals `DecodeUnit(z)`.
  Configuration Decode(const std::vector<double>& z) const;

 private:
  const ConfigurationSpace* full_;
  ProjectionOptions options_;
  ConfigurationSpace box_;
  std::vector<size_t> target_;       // h(i): knob -> box dimension
  std::vector<double> sign_;         // s(i): +1 / -1
  std::vector<double> default_unit_; // Encode(default) per knob
};

}  // namespace dbtune

#endif  // DBTUNE_KNOBS_PROJECTED_SPACE_H_
