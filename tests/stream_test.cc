// Unit tests for the stream substrate: schema, event stream, windows,
// generators, the stock simulator, and CSV round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "stream/csv_io.h"
#include "stream/generator.h"
#include "stream/stocksim.h"
#include "stream/window.h"

namespace dlacep {
namespace {

TEST(Schema, RegistersAndLooksUpTypesAndAttrs) {
  Schema schema;
  const TypeId a = schema.RegisterType("GOOG");
  const TypeId b = schema.RegisterType("AAPL");
  EXPECT_NE(a, b);
  EXPECT_EQ(schema.RegisterType("GOOG"), a);  // idempotent
  EXPECT_EQ(schema.TypeIdOf("AAPL").value(), b);
  EXPECT_FALSE(schema.TypeIdOf("MSFT").ok());
  EXPECT_EQ(schema.TypeName(a), "GOOG");
  EXPECT_EQ(schema.TypeName(kBlankType), "<blank>");

  const size_t vol = schema.RegisterAttr("vol");
  EXPECT_EQ(schema.AttrIndexOf("vol").value(), vol);
  EXPECT_FALSE(schema.AttrIndexOf("price").ok());
  EXPECT_EQ(schema.num_types(), 2u);
  EXPECT_EQ(schema.num_attrs(), 1u);
}

TEST(EventStream, AssignsStrictlyIncreasingIds) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  EXPECT_EQ(stream.Append(0, 0.0, {1.0}), 0u);
  EXPECT_EQ(stream.Append(1, 1.0, {2.0}), 1u);
  EXPECT_EQ(stream.AppendBlank(2.0), 2u);
  EXPECT_EQ(stream.size(), 3u);
  EXPECT_TRUE(stream[2].is_blank());
  EXPECT_FALSE(stream[0].is_blank());
}

TEST(EventStream, ComputeAttrStatsIgnoresBlanks) {
  auto schema = MakeSyntheticSchema(2, 1);
  EventStream stream(schema);
  stream.Append(0, 0.0, {2.0});
  stream.AppendBlank(1.0);
  stream.Append(1, 2.0, {4.0});
  const AttrStats stats = stream.ComputeAttrStats(0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 1.0);
}

TEST(EventStream, TypeHistogramAndSlice) {
  auto schema = MakeSyntheticSchema(3, 1);
  EventStream stream(schema);
  for (int i = 0; i < 6; ++i) {
    stream.Append(static_cast<TypeId>(i % 2), i, {0.0});
  }
  const auto hist = stream.TypeHistogram();
  EXPECT_EQ(hist[0], 3u);
  EXPECT_EQ(hist[1], 3u);
  EXPECT_EQ(hist[2], 0u);

  const EventStream slice = stream.Slice(2, 3);
  EXPECT_EQ(slice.size(), 3u);
  EXPECT_EQ(slice[0].id, 2u);  // ids preserved
}

TEST(Windows, FitsWindowCountAndTime) {
  Event e1(0, 0, 0.0, {});
  Event e2(4, 0, 8.0, {});
  const std::vector<const Event*> events = {&e1, &e2};
  EXPECT_TRUE(FitsWindow(events, WindowSpec::Count(5)));
  EXPECT_FALSE(FitsWindow(events, WindowSpec::Count(4)));
  EXPECT_TRUE(FitsWindow(events, WindowSpec::Time(8.0)));
  EXPECT_FALSE(FitsWindow(events, WindowSpec::Time(7.9)));
  EXPECT_TRUE(FitsWindow({}, WindowSpec::Count(1)));
}

TEST(Windows, CountWindowsCoverStreamWithStep) {
  const auto windows = CountWindows(10, 4, 2);
  ASSERT_GE(windows.size(), 4u);
  EXPECT_EQ(windows[0].begin, 0u);
  EXPECT_EQ(windows[0].end, 4u);
  EXPECT_EQ(windows[1].begin, 2u);
  EXPECT_EQ(windows.back().end, 10u);
}

TEST(Windows, TimeWindowsFollowTimestamps) {
  auto schema = MakeSyntheticSchema(1, 1);
  EventStream stream(schema);
  for (double ts : {0.0, 1.0, 5.0, 6.0, 20.0}) {
    stream.Append(0, ts, {0.0});
  }
  const auto windows = TimeWindows(stream, 2.0);
  ASSERT_FALSE(windows.empty());
  // First window covers ts 0,1 (span 2.0 excludes ts 5).
  EXPECT_EQ(windows[0].begin, 0u);
  EXPECT_EQ(windows[0].end, 2u);
  // The last event sits in its own window.
  EXPECT_EQ(windows.back().end, 5u);
}

// Coverage contract of TimeWindows: every pair of events whose
// timestamps differ by at most `span` must co-occur in at least one
// emitted window.
void ExpectPairwiseCoverage(const EventStream& stream, double span) {
  const auto windows = TimeWindows(stream, span);
  for (size_t i = 0; i < stream.size(); ++i) {
    for (size_t j = i + 1; j < stream.size(); ++j) {
      if (std::abs(stream[j].timestamp - stream[i].timestamp) > span) {
        continue;
      }
      bool covered = false;
      for (const WindowRange& w : windows) {
        covered = covered || (w.begin <= i && j < w.end);
      }
      EXPECT_TRUE(covered) << "pair (" << i << "," << j
                           << ") never co-occurs, ts "
                           << stream[i].timestamp << " vs "
                           << stream[j].timestamp;
    }
  }
}

TEST(Windows, TimeWindowsCoverAllPairsOnSortedStreams) {
  auto schema = MakeSyntheticSchema(1, 1);
  EventStream stream(schema);
  Rng rng(31);
  double ts = 0.0;
  for (int i = 0; i < 60; ++i) {
    ts += rng.Uniform() * 3.0;
    stream.Append(0, ts, {0.0});
  }
  ExpectPairwiseCoverage(stream, 4.0);
}

// Regression: with out-of-order timestamps (e.g. a stream loaded from
// an external CSV) the window anchored at an event used to stop at the
// first out-of-span straggler, so later in-span partners never
// co-occurred with the anchor. Here the pair (0, 2) — ts 0 and 3,
// within span 5 — was missed because ts=100 truncated event 0's window.
TEST(Windows, TimeWindowsCoverAllPairsOnUnsortedStreams) {
  auto schema = MakeSyntheticSchema(1, 1);
  EventStream stream(schema);
  for (double ts : {0.0, 100.0, 3.0}) {
    stream.Append(0, ts, {0.0});
  }
  ExpectPairwiseCoverage(stream, 5.0);

  // Randomized shuffled timestamps exercise the general case.
  EventStream shuffled(schema);
  Rng rng(32);
  for (int i = 0; i < 50; ++i) {
    shuffled.Append(0, rng.Uniform() * 40.0, {0.0});
  }
  ExpectPairwiseCoverage(shuffled, 6.0);
}

TEST(SyntheticGenerator, IsDeterministicAndRespectsConfig) {
  SyntheticConfig config;
  config.num_events = 200;
  config.num_types = 7;
  config.num_attrs = 2;
  config.seed = 5;
  const EventStream a = GenerateSynthetic(config);
  const EventStream b = GenerateSynthetic(config);
  ASSERT_EQ(a.size(), 200u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].attrs, b[i].attrs);
    EXPECT_LT(a[i].type, 7);
    EXPECT_EQ(a[i].attrs.size(), 2u);
  }
  // Constant sampling rate.
  EXPECT_DOUBLE_EQ(a[10].timestamp - a[9].timestamp, 1.0);
}

TEST(StockSimulator, RanksAreOrderedByPrevalence) {
  StockSimConfig config;
  config.num_events = 8000;
  config.num_symbols = 12;
  config.zipf_exponent = 1.1;
  config.seed = 9;
  const EventStream stream = GenerateStockStream(config);
  const auto hist = stream.TypeHistogram();
  // Zipf rank order: earlier ids strictly more prevalent on average;
  // allow small inversions between adjacent ranks but require the
  // aggregate ordering head >> tail.
  size_t head = 0;
  size_t tail = 0;
  for (size_t i = 0; i < 4; ++i) head += hist[i];
  for (size_t i = 8; i < 12; ++i) tail += hist[i];
  EXPECT_GT(head, 2 * tail);
}

TEST(StockSimulator, VolumesArePositiveAndCorrelated) {
  StockSimConfig config;
  config.num_events = 2000;
  config.num_symbols = 4;
  config.seed = 10;
  const EventStream stream = GenerateStockStream(config);
  double prev_by_symbol[4] = {0, 0, 0, 0};
  size_t close = 0;
  size_t total = 0;
  for (const Event& e : stream) {
    const double v = e.attr(0);
    EXPECT_GT(v, 0.0);
    double& prev = prev_by_symbol[e.type];
    if (prev > 0.0) {
      ++total;
      if (v > prev * 0.8 && v < prev * 1.25) ++close;
    }
    prev = v;
  }
  // Random-walk volumes: consecutive ticks of a symbol stay close.
  EXPECT_GT(static_cast<double>(close) / static_cast<double>(total), 0.9);
}

TEST(CsvIo, RoundTripPreservesEventsAndBlanks) {
  auto schema = MakeSyntheticSchema(3, 2);
  EventStream stream(schema);
  stream.Append(0, 0.5, {1.25, -3.0});
  stream.AppendBlank(1.0);
  stream.Append(2, 2.5, {0.0, 42.0});

  const std::string path = ::testing::TempDir() + "/dlacep_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(stream, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EventStream& out = loaded.value();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].attrs, stream[0].attrs);
  EXPECT_TRUE(out[1].is_blank());
  EXPECT_DOUBLE_EQ(out[2].timestamp, 2.5);
  EXPECT_EQ(out.schema().TypeName(out[2].type), "C");
  std::remove(path.c_str());
}

TEST(CsvIo, RejectsMissingFileAndBadHeader) {
  EXPECT_FALSE(ReadCsv("/nonexistent/file.csv").ok());
  const std::string path = ::testing::TempDir() + "/dlacep_bad.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("wrong,header\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvIo, FilesReadIntoOneSchemaShareTypeIdsAndAttributeOrder) {
  // Two files of one job that meet their types in different orders and
  // list their attributes in different column orders: read into one
  // schema, a type name and an attribute name mean the same id in both.
  const std::string first = ::testing::TempDir() + "/dlacep_order_a.csv";
  const std::string second = ::testing::TempDir() + "/dlacep_order_b.csv";
  FILE* f = std::fopen(first.c_str(), "w");
  std::fputs("id,type,timestamp,vol,price\n0,S0,0,1,10\n1,S1,1,2,20\n", f);
  std::fclose(f);
  f = std::fopen(second.c_str(), "w");
  std::fputs("id,type,timestamp,price,vol\n0,S1,0,30,3\n1,S2,1,40,4\n"
             "2,S0,2,50,5\n",
             f);
  std::fclose(f);

  auto schema = std::make_shared<Schema>();
  auto a = ReadCsv(first, schema);
  auto b = ReadCsv(second, schema);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value()[0].type, a.value()[1].type);  // S1
  EXPECT_EQ(b.value()[2].type, a.value()[0].type);  // S0
  EXPECT_EQ(b.value().schema().TypeName(b.value()[1].type), "S2");
  const size_t vol = schema->AttrIndexOf("vol").value();
  const size_t price = schema->AttrIndexOf("price").value();
  EXPECT_DOUBLE_EQ(b.value()[0].attr(vol), 3.0);
  EXPECT_DOUBLE_EQ(b.value()[0].attr(price), 30.0);

  // Read separately, the second file gives S1 the id S0 has in the first.
  auto alone = ReadCsv(second);
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(alone.value()[0].type, a.value()[0].type);

  // A file whose attribute set differs from the schema's is refused.
  f = std::fopen(second.c_str(), "w");
  std::fputs("id,type,timestamp,vol\n0,S1,0,3\n", f);
  std::fclose(f);
  const auto missing = ReadCsv(second, schema);
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  f = std::fopen(second.c_str(), "w");
  std::fputs("id,type,timestamp,vol,size\n0,S1,0,3,1\n", f);
  std::fclose(f);
  const auto renamed = ReadCsv(second, schema);
  EXPECT_EQ(renamed.status().code(), StatusCode::kInvalidArgument);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

}  // namespace
}  // namespace dlacep
