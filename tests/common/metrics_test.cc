#include "common/metrics.h"

#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace hpm {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, BucketIndexIsBitWidth) {
  // Bucket i holds samples with bit width i: 0 -> 0, 1 -> 1, [2,3] -> 2,
  // [4,7] -> 3, ...
  EXPECT_EQ(LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LatencyHistogram::BucketIndex(1000), 10u);
}

TEST(LatencyHistogramTest, LastBucketSaturates) {
  const size_t last = LatencyHistogram::kNumBuckets - 1;
  EXPECT_EQ(LatencyHistogram::BucketIndex(~uint64_t{0}), last);
  EXPECT_EQ(LatencyHistogram::BucketIndex(uint64_t{1} << 60), last);
}

TEST(LatencyHistogramTest, SnapshotCountsSumAndMean) {
  LatencyHistogram h;
  h.RecordMicros(10);
  h.RecordMicros(20);
  h.RecordMicros(30);
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum_micros, 60u);
  EXPECT_DOUBLE_EQ(snap.mean_micros(), 20.0);
  // 10 and 20/30 land in buckets bit_width(10)=4 and bit_width(20|30)=5.
  EXPECT_EQ(snap.buckets[4], 1u);
  EXPECT_EQ(snap.buckets[5], 2u);
}

TEST(LatencyHistogramTest, RecordDurationFloorsToMicros) {
  LatencyHistogram h;
  h.Record(std::chrono::milliseconds(2));
  h.Record(std::chrono::nanoseconds(500));  // Floors to 0us.
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum_micros, 2000u);
  EXPECT_EQ(snap.buckets[0], 1u);
}

TEST(LatencyHistogramTest, PercentileReturnsBucketUpperBound) {
  LatencyHistogram h;
  // 99 samples at ~100us (bucket 7, upper bound 128), one at ~100ms
  // (bucket 17, upper bound 131072).
  for (int i = 0; i < 99; ++i) h.RecordMicros(100);
  h.RecordMicros(100000);
  const LatencyHistogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.PercentileMicros(50), 128.0);
  EXPECT_DOUBLE_EQ(snap.PercentileMicros(99), 128.0);
  EXPECT_DOUBLE_EQ(snap.PercentileMicros(100), 131072.0);
}

TEST(LatencyHistogramTest, EmptyPercentileIsZero) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.TakeSnapshot().PercentileMicros(99), 0.0);
}

TEST(MetricsRegistryTest, GetCounterIsIdempotentAndStable) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(registry.GetCounter("x")->value(), 7u);
  EXPECT_NE(registry.GetCounter("y"), a);
}

TEST(MetricsRegistryTest, GetHistogramIsIdempotentAndStable) {
  MetricsRegistry registry;
  LatencyHistogram* a = registry.GetHistogram("lat");
  EXPECT_EQ(a, registry.GetHistogram("lat"));
  a->RecordMicros(5);
  EXPECT_EQ(registry.GetHistogram("lat")->TakeSnapshot().count, 1u);
}

TEST(MetricsRegistryTest, SnapshotReflectsAllInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("a")->Increment(3);
  registry.GetCounter("b");
  registry.GetHistogram("h")->RecordMicros(12);
  const MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counter("a"), 3u);
  EXPECT_EQ(snap.counter("b"), 0u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsSnapshotTest, CounterSumAddsExactlyThePrefixFamily) {
  MetricsRegistry registry;
  registry.GetCounter("shed.report")->Increment(2);
  registry.GetCounter("shed.range")->Increment(5);
  registry.GetCounter("shed_total")->Increment(100);  // Not "shed.".
  registry.GetCounter("admitted.report")->Increment(7);
  const MetricsSnapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counter_sum("shed."), 7u);
  EXPECT_EQ(snap.counter_sum("admitted."), 7u);
  EXPECT_EQ(snap.counter_sum("missing."), 0u);
}

TEST(MetricsSnapshotTest, ToJsonContainsNamesAndValues) {
  MetricsRegistry registry;
  registry.GetCounter("requests")->Increment(5);
  registry.GetHistogram("latency_us")->RecordMicros(100);
  const std::string json = registry.TakeSnapshot().ToJson();
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("5"), std::string::npos);
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
}

}  // namespace
}  // namespace hpm
