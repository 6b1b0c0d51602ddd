#include "mining/transaction.h"

#include <algorithm>

namespace hpm {

Transaction::Transaction(const std::vector<RegionVisit>& visits,
                         size_t num_regions) {
  items_.reserve(visits.size());
  for (const RegionVisit& v : visits) {
    HPM_CHECK(v.region_id >= 0 &&
              static_cast<size_t>(v.region_id) < num_regions);
    items_.push_back(v.region_id);
  }
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

std::vector<Transaction> BuildTransactions(
    const FrequentRegionMiningResult& mining_result) {
  const size_t num_regions = mining_result.region_set.NumRegions();
  std::vector<Transaction> transactions;
  transactions.reserve(mining_result.visits.size());
  for (const auto& visits : mining_result.visits) {
    transactions.emplace_back(visits, num_regions);
  }
  return transactions;
}

std::vector<int> MapMovementsToRegions(const FrequentRegionSet& regions,
                                       const std::vector<TimedPoint>& recent,
                                       double slack) {
  std::vector<int> ids;
  const Timestamp period = regions.period();
  for (const TimedPoint& tp : recent) {
    Timestamp offset = tp.time;
    if (period > 0) {
      offset = tp.time % period;
      if (offset < 0) offset += period;
    }
    const int id = regions.FindNearbyRegion(offset, tp.location, slack);
    if (id >= 0) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace hpm
