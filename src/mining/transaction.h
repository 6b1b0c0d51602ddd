// Transactions: the item-set view of sub-trajectories consumed by the
// Apriori pattern miner (paper §IV).
//
// Each sub-trajectory becomes one transaction whose items are the
// frequent-region ids it visited. Because region ids are assigned in
// offset order, a transaction's sorted item list is automatically a
// time-ordered region sequence. The miner turns the transactions around
// once — one tidset per region, bit r set when transaction r visited it
// — and counts every support on those, so a transaction is only its
// sorted item list.

#ifndef HPM_MINING_TRANSACTION_H_
#define HPM_MINING_TRANSACTION_H_

#include <vector>

#include "mining/frequent_region.h"

namespace hpm {

/// One sub-trajectory's region visits as an item set.
class Transaction {
 public:
  /// Creates a transaction over a universe of `num_regions` items from
  /// the given visits (region ids may repeat across offsets if the object
  /// lingers; duplicates collapse in the set view, as in the paper's
  /// association-rule framing). Every id must lie in [0, num_regions).
  Transaction(const std::vector<RegionVisit>& visits, size_t num_regions);

  /// Sorted distinct region ids (== time-offset order).
  const std::vector<int>& items() const { return items_; }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  std::vector<int> items_;
};

/// Builds one transaction per sub-trajectory from a discovery result.
std::vector<Transaction> BuildTransactions(
    const FrequentRegionMiningResult& mining_result);

/// Maps an object's recent movements onto frequent regions: for each
/// movement, finds the region at its time offset (time mod period) whose
/// MBR contains (or is within `slack` of) the location. Returns the
/// matched region ids, de-duplicated, ascending. This is how a query's
/// premise is derived at prediction time (paper §V-C).
std::vector<int> MapMovementsToRegions(const FrequentRegionSet& regions,
                                       const std::vector<TimedPoint>& recent,
                                       double slack = 0.0);

}  // namespace hpm

#endif  // HPM_MINING_TRANSACTION_H_
