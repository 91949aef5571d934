// Fixture: unvalidated-enum-cast. Integers read off the wire become
// enums with no range check in the same function. Expected findings: 4
// (the frame tag, the optimizer byte whose check sits in another
// function, the status byte whose function checks a different field, and
// the qualified record type); the allow()ed cast stays quiet.
#include <cstdint>

namespace dbtune::serve {

enum class MessageType : uint8_t { kCreate = 1, kSuggest = 3 };
enum class OptimizerType { kVanillaBo, kRandomSearch };
enum StatusCode { kOk, kInternal };

namespace store {
enum class RecordType : uint8_t { kBegin = 1, kEnd = 3 };
}  // namespace store

struct Frame {
  MessageType type;
  uint8_t optimizer;
  uint8_t status;
  uint32_t length;
};

MessageType DecodeTag(const unsigned char* p) {
  return static_cast<MessageType>(p[0]);
}

bool OptimizerByteValid(const Frame& frame) {
  return frame.optimizer <= static_cast<uint8_t>(OptimizerType::kRandomSearch);
}

OptimizerType DecodeOptimizer(const Frame& frame) {
  return static_cast<OptimizerType>(frame.optimizer);
}

StatusCode DecodeStatus(const Frame& frame) {
  if (frame.length > 64) return kInternal;
  return static_cast<StatusCode>(frame.status);
}

store::RecordType DecodeRecord(const char* payload) {
  return static_cast<dbtune::serve::store::RecordType>(payload[8]);
}

MessageType DecodeTrusted(const unsigned char* p) {
  // Every consumer switches on the tag with a default arm.
  return static_cast<MessageType>(p[1]);  // dbtune-lint: allow(unvalidated-enum-cast)
}

}  // namespace dbtune::serve
