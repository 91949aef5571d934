// Near-misses for unvalidated-enum-cast: every cast to an enum here is
// range-checked in its own function (left operand, right operand, a
// parenthesized operand, a local copy), or is not a cast to an enum at
// all (enum to integer, integer to integer). None is a finding.
#include <cstdint>

namespace dbtune::serve {

enum class MessageType : uint8_t { kCreate = 1, kSuggest = 3 };
enum class OptimizerType { kVanillaBo, kRandomSearch };

struct Frame {
  uint8_t tag;
  uint8_t optimizer;
};

bool DecodeOptimizer(const Frame& frame, OptimizerType* out) {
  if (frame.optimizer > static_cast<uint8_t>(OptimizerType::kRandomSearch)) {
    return false;
  }
  *out = static_cast<OptimizerType>(frame.optimizer);
  return true;
}

bool DecodeTag(const unsigned char* p, MessageType* out) {
  const uint8_t tag = p[0];
  if (tag < 1 || 3 < tag) return false;
  *out = static_cast<MessageType>(tag);
  return true;
}

bool DecodeWide(const Frame& frame, OptimizerType* out) {
  if (static_cast<int>(frame.optimizer) >= 2) return false;
  *out = static_cast<OptimizerType>(frame.optimizer);
  return true;
}

int Encode(MessageType type, uint32_t length) {
  return static_cast<int>(type) + static_cast<int>(length);
}

}  // namespace dbtune::serve
