#include "knobs/knob.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace dbtune {

const char* KnobTypeName(KnobType type) {
  switch (type) {
    case KnobType::kContinuous:
      return "continuous";
    case KnobType::kInteger:
      return "integer";
    case KnobType::kCategorical:
      return "categorical";
  }
  return "?";
}

Knob Knob::Continuous(std::string name, double min, double max,
                      double default_value, bool log_scale) {
  DBTUNE_CHECK_MSG(min < max, "continuous knob needs min < max");
  DBTUNE_CHECK_MSG(!log_scale || min > 0.0, "log-scaled knob needs min > 0");
  DBTUNE_CHECK(default_value >= min && default_value <= max);
  Knob k;
  k.name_ = std::move(name);
  k.type_ = KnobType::kContinuous;
  k.min_ = min;
  k.max_ = max;
  k.default_value_ = default_value;
  k.SetLogScale(log_scale);
  return k;
}

Knob Knob::Integer(std::string name, int64_t min, int64_t max,
                   int64_t default_value, bool log_scale) {
  DBTUNE_CHECK_MSG(min < max, "integer knob needs min < max");
  DBTUNE_CHECK_MSG(!log_scale || min > 0, "log-scaled knob needs min > 0");
  DBTUNE_CHECK(default_value >= min && default_value <= max);
  Knob k;
  k.name_ = std::move(name);
  k.type_ = KnobType::kInteger;
  k.min_ = static_cast<double>(min);
  k.max_ = static_cast<double>(max);
  k.default_value_ = static_cast<double>(default_value);
  k.SetLogScale(log_scale);
  return k;
}

Knob Knob::Categorical(std::string name, std::vector<std::string> categories,
                       size_t default_index) {
  DBTUNE_CHECK_MSG(categories.size() >= 2, "categorical knob needs >= 2 values");
  DBTUNE_CHECK(default_index < categories.size());
  Knob k;
  k.name_ = std::move(name);
  k.type_ = KnobType::kCategorical;
  k.min_ = 0.0;
  k.max_ = static_cast<double>(categories.size() - 1);
  k.default_value_ = static_cast<double>(default_index);
  k.categories_ = std::move(categories);
  return k;
}

void Knob::SetLogScale(bool log_scale) {
  log_scale_ = log_scale;
  if (log_scale_) {
    log_min_ = std::log(min_);
    log_max_ = std::log(max_);
  }
}

double Knob::Encode(double value) const {
  const double v = Clip(value);
  if (type_ == KnobType::kCategorical) {
    const double k = static_cast<double>(categories_.size());
    return (v + 0.5) / k;
  }
  if (log_scale_) {
    return (std::log(v) - log_min_) / (log_max_ - log_min_);
  }
  return (v - min_) / (max_ - min_);
}

double Knob::Decode(double unit) const {
  const double u = std::clamp(unit, 0.0, 1.0);
  if (type_ == KnobType::kCategorical) {
    const double k = static_cast<double>(categories_.size());
    double idx = std::floor(u * k);
    return std::clamp(idx, 0.0, k - 1.0);
  }
  double v;
  if (log_scale_) {
    v = std::exp(log_min_ + u * (log_max_ - log_min_));
  } else {
    v = min_ + u * (max_ - min_);
  }
  if (type_ == KnobType::kInteger) v = std::round(v);
  return std::clamp(v, min_, max_);
}

double Knob::Clip(double value) const {
  double v = std::clamp(value, min_, max_);
  if (type_ == KnobType::kInteger || type_ == KnobType::kCategorical) {
    v = std::round(v);
  }
  return std::clamp(v, min_, max_);
}

bool Knob::IsValid(double value) const {
  if (!std::isfinite(value)) return false;
  return value >= min_ && value <= max_;
}

}  // namespace dbtune
