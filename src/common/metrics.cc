#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace hpm {

size_t LatencyHistogram::BucketIndex(uint64_t micros) {
  const size_t width = static_cast<size_t>(std::bit_width(micros));
  return std::min(width, kNumBuckets - 1);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_micros = sum_micros_.load(std::memory_order_relaxed);
  return snap;
}

double LatencyHistogram::Snapshot::PercentileMicros(double percentile) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(percentile, 0.0, 100.0);
  // Rank of the requested sample, 1-based, rounded up so p100 lands on the
  // last recorded sample and p0 on the first.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(clamped / 100.0 * static_cast<double>(count) +
                               0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return static_cast<double>(BucketUpperMicros(i));
  }
  return static_cast<double>(BucketUpperMicros(kNumBuckets - 1));
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

uint64_t MetricsSnapshot::counter_sum(const std::string& prefix) const {
  uint64_t total = 0;
  for (const auto& [n, v] : counters) {
    if (n.compare(0, prefix.size(), prefix) == 0) total += v;
  }
  return total;
}

const LatencyHistogram::Snapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, snap] : histograms) {
    if (n == name) return &snap;
  }
  return nullptr;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    bool found = false;
    for (auto& [n, v] : counters) {
      if (n == name) {
        v += value;
        found = true;
        break;
      }
    }
    if (!found) counters.emplace_back(name, value);
  }
  for (const auto& [name, snap] : other.histograms) {
    bool found = false;
    for (auto& [n, mine] : histograms) {
      if (n == name) {
        for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
          mine.buckets[i] += snap.buckets[i];
        }
        mine.count += snap.count;
        mine.sum_micros += snap.sum_micros;
        found = true;
        break;
      }
    }
    if (!found) histograms.emplace_back(name, snap);
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, snap] : histograms) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {"
        << "\"count\": " << snap.count << ", \"sum_us\": " << snap.sum_micros
        << ", \"mean_us\": " << snap.mean_micros()
        << ", \"p50_us\": " << snap.PercentileMicros(50.0)
        << ", \"p99_us\": " << snap.PercentileMicros(99.0) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}";
  return out.str();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, counter] : counters_) {
    if (n == name) return counter.get();
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return counters_.back().second.get();
}

LatencyHistogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, histogram] : histograms_) {
    if (n == name) return histogram.get();
  }
  histograms_.emplace_back(name, std::make_unique<LatencyHistogram>());
  return histograms_.back().second.get();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->TakeSnapshot());
  }
  return snap;
}

}  // namespace hpm
