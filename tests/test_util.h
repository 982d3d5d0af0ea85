// Shared helpers for unit and property tests.

#ifndef DLACEP_TESTS_TEST_UTIL_H_
#define DLACEP_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pattern/builder.h"
#include "stream/generator.h"
#include "stream/stream.h"

namespace dlacep {
namespace testing_util {

/// A small synthetic stream over types A.. with one N(0,1) attribute.
inline EventStream SmallStream(size_t num_events, uint64_t seed,
                               size_t num_types = 5) {
  SyntheticConfig config;
  config.num_events = num_events;
  config.num_types = num_types;
  config.num_attrs = 1;
  config.seed = seed;
  return GenerateSynthetic(config);
}

/// SEQ(A v0, B v1, ...) of `len` positions with ascending-volume
/// conditions between consecutive positions (selectivity ~0.5 each).
/// The types start `first_type` letters after A.
inline Pattern AscendingSeqPattern(std::shared_ptr<const Schema> schema,
                                   size_t len, size_t window,
                                   size_t first_type = 0) {
  PatternBuilder builder(std::move(schema));
  auto var_name = [](size_t i) {
    std::string name = "v";
    name += std::to_string(i);
    return name;
  };
  std::vector<PatternBuilder::Node> children;
  for (size_t i = 0; i < len; ++i) {
    const std::string type(1, static_cast<char>('A' + first_type + i));
    children.push_back(builder.Prim(type, var_name(i)));
  }
  auto root = builder.SeqOf(std::move(children));
  for (size_t i = 0; i + 1 < len; ++i) {
    builder.WhereCmp(1.0, var_name(i), "vol", CmpOp::kLt, 1.0,
                     var_name(i + 1));
  }
  return builder.BuildOrDie(std::move(root), WindowSpec::Count(window));
}

}  // namespace testing_util
}  // namespace dlacep

#endif  // DLACEP_TESTS_TEST_UTIL_H_
