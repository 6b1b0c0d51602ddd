#include "mining/incremental_miner.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/status.h"

namespace hpm {

IncrementalMiner::IncrementalMiner(IncrementalMinerOptions options,
                                   Timestamp period, AprioriParams mining)
    : options_(options), period_(period), mining_(mining) {
  HPM_CHECK(period_ > 0);
  HPM_CHECK(options_.window_periods >= 1 &&
            options_.window_periods <= kMaxWindowPeriods);
  HPM_CHECK(mining_.min_support >= 1);
}

size_t IncrementalMiner::WindowSize() const {
  return std::min(periods_seen_,
                  static_cast<size_t>(options_.window_periods));
}

void IncrementalMiner::Observe(const Trajectory& history) {
  ObserveThrough(history, history.size());
}

void IncrementalMiner::ObserveThrough(const Trajectory& history,
                                      size_t end) {
  HPM_CHECK(end >= observed_ && end <= history.size());
  const size_t period = static_cast<size_t>(period_);
  while (observed_ < end) {
    // Jump to the next period boundary (or `end`).
    const size_t boundary = (observed_ / period + 1) * period;
    observed_ = std::min(boundary, end);
    if (observed_ == boundary) FinalizePeriod(history);
  }
}

size_t IncrementalMiner::MapPeriod(const Trajectory& history, size_t begin,
                                   std::vector<int>* items) const {
  items->clear();
  size_t unmatched = 0;
  for (Timestamp t = 0; t < period_; ++t) {
    const int region = regions_->FindNearbyRegion(
        t, history.points()[begin + static_cast<size_t>(t)],
        options_.region_match_slack);
    // Region ids ascend with offset and each offset yields at most one
    // id, so the list comes out sorted and distinct.
    if (region >= 0) {
      items->push_back(region);
    } else {
      ++unmatched;
    }
  }
  return unmatched;
}

uint64_t IncrementalMiner::MaskOf(const std::vector<int>& items) const {
  uint64_t mask = ~uint64_t{0};
  for (int id : items) mask &= masks_[static_cast<size_t>(id)];
  return mask;
}

template <typename Fn>
void IncrementalMiner::ForEachValidItemset(const std::vector<int>& items,
                                           int floor, Fn&& visit) const {
  if (items.size() < 2 || mining_.max_pattern_length < 2) return;
  const size_t max_len = static_cast<size_t>(mining_.max_pattern_length);
  std::vector<int> chosen;
  chosen.reserve(max_len);
  const auto offset_of = [this](int id) {
    return regions_->Region(id).offset;
  };
  // DFS over combinations in ascending-id (== ascending-offset) order.
  // A set is visited at size >= 2; extending a size >= 2 prefix makes
  // that prefix the extension's premise, so the premise-window span is
  // checked exactly where the offline candidate generation checks it.
  const auto recurse = [&](const auto& self, size_t start,
                           uint64_t mask) -> void {
    if (chosen.size() >= 2) visit(chosen, mask);
    if (chosen.size() >= max_len) return;
    if (chosen.size() >= 2 && mining_.premise_window > 0 &&
        offset_of(chosen.back()) - offset_of(chosen.front()) >
            mining_.premise_window) {
      return;
    }
    for (size_t i = start; i < items.size(); ++i) {
      if (!chosen.empty() &&
          offset_of(items[i]) <= offset_of(chosen.back())) {
        continue;
      }
      const uint64_t extended = mask & masks_[static_cast<size_t>(items[i])];
      if (std::popcount(extended) < floor) continue;
      chosen.push_back(items[i]);
      self(self, i + 1, extended);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0, ~uint64_t{0});
}

size_t IncrementalMiner::CountAtThreshold(
    const std::vector<int>& items) const {
  const int target = mining_.min_support - 1;
  size_t count = 0;
  ForEachValidItemset(items, target,
                      [&](const std::vector<int>&, uint64_t mask) {
                        if (std::popcount(mask) == target) ++count;
                      });
  return count;
}

void IncrementalMiner::FinalizePeriod(const Trajectory& history) {
  const size_t index = periods_seen_;
  const bool full =
      WindowSize() == static_cast<size_t>(options_.window_periods);
  ++periods_seen_;
  if (!regions_) return;

  const uint64_t slot =
      uint64_t{1} << (index % static_cast<size_t>(options_.window_periods));
  std::vector<int> added;
  const size_t unmatched = MapPeriod(
      history, index * static_cast<size_t>(period_), &added);
  std::vector<int> expired;
  if (full) {
    for (size_t id = 0; id < masks_.size(); ++id) {
      if ((masks_[id] & slot) != 0) expired.push_back(static_cast<int>(id));
    }
  }

  // The new period counts +1 before the expiring one (in the same slot)
  // counts -1. A set of the new period is promoted when its support
  // before the +1 is min_support - 1; a set of the expiring period is
  // demoted when its support after both steps is min_support - 1.
  const size_t promoted = CountAtThreshold(added);
  for (int id : expired) masks_[static_cast<size_t>(id)] &= ~slot;
  for (int id : added) masks_[static_cast<size_t>(id)] |= slot;
  const size_t demoted = CountAtThreshold(expired);

  ++stats_.transactions;
  stats_.unmatched_points += unmatched;
  stats_.promoted += promoted;
  stats_.demoted += demoted;
  if (hooks_.transactions != nullptr) hooks_.transactions->Increment();
  if (hooks_.unmatched_points != nullptr && unmatched > 0) {
    hooks_.unmatched_points->Increment(unmatched);
  }
  if (hooks_.promoted != nullptr && promoted > 0) {
    hooks_.promoted->Increment(promoted);
  }
  if (hooks_.demoted != nullptr && demoted > 0) {
    hooks_.demoted->Increment(demoted);
  }
  drift_ = drift_ * options_.drift_decay +
           options_.crossing_weight * static_cast<double>(promoted + demoted) +
           options_.unmatched_weight * (static_cast<double>(unmatched) /
                                        static_cast<double>(period_));
}

void IncrementalMiner::AdoptRegions(
    std::shared_ptr<const FrequentRegionSet> regions,
    const Trajectory& history) {
  HPM_CHECK(regions != nullptr);
  HPM_CHECK(history.size() >= window_end());
  regions_ = std::move(regions);
  masks_.assign(regions_->NumRegions(), 0);
  drift_ = 0.0;
  // Re-derive the masks under the new universe. Exact window supports
  // are a pure function of (window contents, regions), so this lands on
  // the state an always-on miner would hold — the invariant the
  // crash/replay property leans on. The recount is a re-basing, not
  // drift: stats and hooks stay untouched.
  const size_t window = static_cast<size_t>(options_.window_periods);
  std::vector<int> items;
  for (size_t p = periods_seen_ - WindowSize(); p < periods_seen_; ++p) {
    MapPeriod(history, p * static_cast<size_t>(period_), &items);
    for (int id : items) masks_[static_cast<size_t>(id)] |= uint64_t{1}
                                                            << (p % window);
  }
}

void IncrementalMiner::Prime(
    const Trajectory& history, size_t adopted_at,
    std::shared_ptr<const FrequentRegionSet> regions) {
  HPM_CHECK(observed_ == 0);
  HPM_CHECK(adopted_at % static_cast<size_t>(period_) == 0 &&
            adopted_at <= history.size());
  // The live order: periods up to the adoption point pass without a
  // region universe (they count nothing), the adoption recount re-bases
  // the masks, and only later periods are counted as traffic.
  if (regions != nullptr) {
    ObserveThrough(history, adopted_at);
    AdoptRegions(std::move(regions), history);
  }
  Observe(history);
}

int IncrementalMiner::SupportOf(const std::vector<int>& items) const {
  if (!regions_ || items.empty()) return 0;
  for (int id : items) {
    if (id < 0 || static_cast<size_t>(id) >= masks_.size()) return 0;
  }
  return std::popcount(MaskOf(items));
}

size_t IncrementalMiner::MemoryBytes() const {
  return sizeof(*this) + masks_.capacity() * sizeof(uint64_t);
}

std::vector<TrajectoryPattern> IncrementalMiner::CurrentPatterns() const {
  std::vector<TrajectoryPattern> patterns;
  if (!regions_) return patterns;
  std::vector<int> all(masks_.size());
  for (size_t id = 0; id < all.size(); ++id) all[id] = static_cast<int>(id);
  // Every frequent valid set is reached: its prefixes are frequent too,
  // so the min_support floor prunes nothing that could qualify.
  ForEachValidItemset(
      all, mining_.min_support,
      [&](const std::vector<int>& items, uint64_t mask) {
        const std::vector<int> premise(items.begin(), items.end() - 1);
        const int support = std::popcount(mask);
        const int premise_support = std::popcount(MaskOf(premise));
        const double confidence = static_cast<double>(support) /
                                  static_cast<double>(premise_support);
        if (confidence < mining_.min_confidence) return;
        TrajectoryPattern p;
        p.premise = premise;
        p.consequence = items.back();
        p.confidence = confidence;
        p.support = support;
        patterns.push_back(std::move(p));
      });
  std::sort(patterns.begin(), patterns.end(),
            [](const TrajectoryPattern& a, const TrajectoryPattern& b) {
              if (a.premise.size() != b.premise.size()) {
                return a.premise.size() < b.premise.size();
              }
              if (a.premise != b.premise) return a.premise < b.premise;
              return a.consequence < b.consequence;
            });
  return patterns;
}

}  // namespace hpm
