#include "knobs/configuration_space.h"

#include "util/logging.h"

namespace dbtune {

ConfigurationSpace::ConfigurationSpace(std::vector<Knob> knobs)
    : knobs_(std::move(knobs)) {
  index_by_name_.reserve(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    const bool inserted =
        index_by_name_.emplace(knobs_[i].name(), i).second;
    DBTUNE_CHECK_MSG(inserted, "duplicate knob name: " + knobs_[i].name());
  }
}

Result<size_t> ConfigurationSpace::KnobIndex(const std::string& name) const {
  const auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) {
    return Status::NotFound("no knob named " + name);
  }
  return it->second;
}

Configuration ConfigurationSpace::Default() const {
  std::vector<double> values(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    values[i] = knobs_[i].default_value();
  }
  return Configuration(std::move(values));
}

Configuration ConfigurationSpace::SampleUniform(Rng& rng) const {
  std::vector<double> values(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    values[i] = knobs_[i].Decode(rng.Uniform());
  }
  return Configuration(std::move(values));
}

std::vector<double> ConfigurationSpace::ToUnit(
    const Configuration& config) const {
  DBTUNE_CHECK(config.size() == knobs_.size());
  std::vector<double> unit(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    unit[i] = knobs_[i].Encode(config[i]);
  }
  return unit;
}

Configuration ConfigurationSpace::FromUnit(
    const std::vector<double>& unit) const {
  DBTUNE_CHECK(unit.size() == knobs_.size());
  std::vector<double> values(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    values[i] = knobs_[i].Decode(unit[i]);
  }
  return Configuration(std::move(values));
}

std::vector<double> ConfigurationSpace::SnapUnit(
    const std::vector<double>& unit) const {
  DBTUNE_CHECK(unit.size() == knobs_.size());
  std::vector<double> snapped(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    snapped[i] = knobs_[i].Encode(knobs_[i].Decode(unit[i]));
  }
  return snapped;
}

Configuration ConfigurationSpace::Clip(const Configuration& config) const {
  DBTUNE_CHECK(config.size() == knobs_.size());
  std::vector<double> values(knobs_.size());
  for (size_t i = 0; i < knobs_.size(); ++i) {
    values[i] = knobs_[i].Clip(config[i]);
  }
  return Configuration(std::move(values));
}

Status ConfigurationSpace::Validate(const Configuration& config) const {
  if (config.size() != knobs_.size()) {
    return Status::InvalidArgument("configuration arity mismatch");
  }
  for (size_t i = 0; i < knobs_.size(); ++i) {
    if (!knobs_[i].IsValid(config[i])) {
      return Status::OutOfRange("knob " + knobs_[i].name() +
                                " value out of domain");
    }
  }
  return Status::OK();
}

std::vector<bool> ConfigurationSpace::CategoricalMask() const {
  std::vector<bool> mask(knobs_.size(), false);
  for (size_t i = 0; i < knobs_.size(); ++i) {
    mask[i] = knobs_[i].is_categorical();
  }
  return mask;
}

ConfigurationSpace ConfigurationSpace::Project(
    const std::vector<size_t>& indices) const {
  std::vector<Knob> selected;
  selected.reserve(indices.size());
  for (size_t i : indices) {
    DBTUNE_CHECK(i < knobs_.size());
    selected.push_back(knobs_[i]);
  }
  return ConfigurationSpace(std::move(selected));
}

}  // namespace dbtune
