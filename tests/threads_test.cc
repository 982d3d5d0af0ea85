// Unit tests for the thread-count helper behind parallel filtration and
// the sharded runtime.

#include <gtest/gtest.h>

#include "common/threads.h"

namespace dlacep {
namespace {

TEST(ResolveNumThreads, ZeroMeansHardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

}  // namespace
}  // namespace dlacep
