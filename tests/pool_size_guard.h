// Shared by the tests that repeat a run at several thread-pool sizes.

#ifndef DBTUNE_TESTS_POOL_SIZE_GUARD_H_
#define DBTUNE_TESTS_POOL_SIZE_GUARD_H_

#include <cstddef>

#include "util/thread_pool.h"

namespace dbtune {
namespace testing {

/// Sets the process-wide pool size; restores the previous size even when
/// an assertion fails.
class PoolSizeGuard {
 public:
  explicit PoolSizeGuard(size_t n)
      : original_(ExecutionContext::Get().num_threads()) {
    ExecutionContext::Get().SetNumThreads(n);
  }
  ~PoolSizeGuard() { ExecutionContext::Get().SetNumThreads(original_); }

 private:
  size_t original_;
};

}  // namespace testing
}  // namespace dbtune

#endif  // DBTUNE_TESTS_POOL_SIZE_GUARD_H_
