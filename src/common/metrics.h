// Lock-free serving metrics: counters and fixed-bucket latency histograms.
//
// The serving path updates metrics on every query, so the update side must
// be wait-free and contention-tolerant: a Counter is a single relaxed
// atomic, a LatencyHistogram is a fixed array of relaxed atomics indexed by
// the bit width of the sample (power-of-two microsecond buckets). Neither
// allocates or locks after construction. Registration and snapshotting go
// through a MetricsRegistry, which hands out pointer-stable instruments and
// serialises a consistent-enough view for dashboards and tools.
//
// Snapshots are advisory: individual loads are relaxed, so a snapshot taken
// concurrently with updates may see a histogram whose `count` lags the sum
// of its buckets by in-flight increments. That is fine for observability;
// tests that need exact values quiesce the store first.

#ifndef HPM_COMMON_METRICS_H_
#define HPM_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace hpm {

/// Monotonic event counter. Wait-free increments, relaxed ordering.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Latency histogram over power-of-two microsecond buckets.
///
/// Bucket `i` counts samples whose value in microseconds has bit width `i`,
/// i.e. lies in [2^(i-1), 2^i); bucket 0 holds sub-microsecond samples and
/// the last bucket saturates (~134s and above). 28 buckets cover the whole
/// plausible serving range with one cache line of counters.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 28;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample of `micros` microseconds.
  void RecordMicros(uint64_t micros) {
    buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  /// Records an elapsed duration (floored to whole microseconds).
  template <typename Rep, typename Period>
  void Record(std::chrono::duration<Rep, Period> elapsed) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
    RecordMicros(us > 0 ? static_cast<uint64_t>(us) : 0);
  }

  /// Point-in-time copy of the histogram; safe to take concurrently with
  /// updates (values are advisory, see file comment).
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    uint64_t count = 0;
    uint64_t sum_micros = 0;

    double mean_micros() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_micros) /
                              static_cast<double>(count);
    }

    /// Upper bound (exclusive) of bucket `i` in microseconds.
    static uint64_t BucketUpperMicros(size_t i) { return uint64_t{1} << i; }

    /// Percentile estimate in [0, 100]; returns the upper bound of the
    /// bucket containing the requested rank (a conservative estimate that
    /// never under-reports by more than one bucket width).
    double PercentileMicros(double percentile) const;
  };

  Snapshot TakeSnapshot() const;

  static size_t BucketIndex(uint64_t micros);

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
};

/// A named view of every instrument in a registry at one point in time.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, LatencyHistogram::Snapshot>> histograms;

  /// Counter value by exact name; 0 when absent.
  uint64_t counter(const std::string& name) const;

  /// Sum of every counter whose name starts with `prefix` — e.g. the
  /// per-op family "store.admitted." totalled over all ops.
  uint64_t counter_sum(const std::string& prefix) const;

  /// Histogram by exact name; nullptr when absent.
  const LatencyHistogram::Snapshot* histogram(const std::string& name) const;

  /// Folds `other`'s rows into this snapshot, so instruments split
  /// across registries (e.g. the store's and the network server's)
  /// render as one document. A name present in both sums counters and
  /// merges histogram buckets; a name only in `other` is appended.
  void MergeFrom(const MetricsSnapshot& other);

  /// Stable JSON rendering (names sorted as registered) for tools/benches.
  std::string ToJson() const;
};

/// Owns instruments and serialises snapshots. Registration takes a lock and
/// is expected at construction time; the returned pointers stay valid for
/// the registry's lifetime, and updating through them is lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under `name`, creating it on first use.
  Counter* GetCounter(const std::string& name);

  /// Returns the histogram registered under `name`, creating it on first use.
  LatencyHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot TakeSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<LatencyHistogram>>>
      histograms_;
};

}  // namespace hpm

#endif  // HPM_COMMON_METRICS_H_
