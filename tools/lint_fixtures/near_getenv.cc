// Near misses next to bad_getenv.cc: the word getenv in comments and
// strings, look-alike identifiers, and switches read through the parsed
// config.
#include <cstddef>
#include <string>

namespace dbtune {

struct EnvConfig {
  std::string store_path;
  size_t num_threads = 0;
};
const EnvConfig& ProcessEnvConfig();

int getenv_calls = 0;  // a counter, not a call

std::string StorePath() { return ProcessEnvConfig().store_path; }

const char* Describe() { return "reads nothing via getenv()"; }

size_t Threads(const EnvConfig& config) {
  ++getenv_calls;
  return config.num_threads;
}

}  // namespace dbtune
