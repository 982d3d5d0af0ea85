// Shared helper for tests that drive the online runtime.

#ifndef DLACEP_TESTS_ONLINE_TEST_UTIL_H_
#define DLACEP_TESTS_ONLINE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include "runtime/online.h"
#include "runtime/source.h"

namespace dlacep {
namespace testing_util {

/// Drains `source` through `online` and expects an OK Status.
inline OnlineResult RunOnline(OnlineDlacep* online, StreamSource* source) {
  OnlineResult result;
  const Status status = online->Run(source, &result);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return result;
}

}  // namespace testing_util
}  // namespace dlacep

#endif  // DLACEP_TESTS_ONLINE_TEST_UTIL_H_
