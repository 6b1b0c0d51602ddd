// Trajectory-pattern mining: a modified Apriori over region transactions
// (paper §IV).
//
// A trajectory pattern is an association rule
//   R_{t1}^{j1} ∧ ... ∧ R_{tm}^{jm} --c--> R_{tn}^{jn},  t1<...<tm<tn,
// i.e. a time-ordered premise of frequent regions implying a single
// later frequent region with confidence c. The miner applies the paper's
// two pruning rules during generation:
//   1. time-monotonicity — rules that predict past/current positions from
//      future ones are never generated;
//   2. single-region consequence — by Theorem 1, a rule with a
//      multi-region consequence is dominated by its single-region
//      sibling and is never useful for prediction.
// Both can be disabled (enable_pruning=false) to reproduce the paper's
// pruning-effect ablation ("58% of trajectory patterns were reduced").
//
// Support is counted on the vertical layout (Eclat, Zaki TKDE 2000): the
// transactions are turned into one tidset per region — ceil(n/64) words,
// bit r set when transaction r visited the region — and every support is
// the popcount of an AND of tidsets, the way the incremental miner
// counts on its slot masks. Each level's frequent item sets are kept
// flat (items, tidsets, supports); joining two sets that share a prefix
// ANDs their tidsets into the candidate's, and a rule's premise is the
// first parent, whose support is already known. Levels come out in
// lexicographic order, so patterns are emitted in (premise size,
// premise, consequence) order.

#ifndef HPM_MINING_APRIORI_H_
#define HPM_MINING_APRIORI_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "mining/frequent_region.h"
#include "mining/transaction.h"

namespace hpm {

/// One mined trajectory pattern (always in the pruned, prediction-ready
/// form: time-ordered premise, single consequence).
struct TrajectoryPattern {
  /// Premise region ids, ascending (region-id order == offset order).
  std::vector<int> premise;

  /// Consequence region id; its offset is strictly greater than every
  /// premise offset.
  int consequence = 0;

  /// Rule confidence c = supp(premise ∪ consequence) / supp(premise).
  double confidence = 0.0;

  /// Number of transactions containing premise ∪ consequence.
  int support = 0;

  /// "R0 ^ R1 -(0.50)-> R3" style rendering.
  std::string ToString() const;
};

/// Miner parameters.
struct AprioriParams {
  /// Rules below this confidence are discarded (paper default 0.3).
  double min_confidence = 0.3;

  /// Item sets must occur in at least this many transactions.
  int min_support = 2;

  /// Maximum items per rule (premise size + 1). The paper's examples use
  /// up to 3 (two-region premises).
  int max_pattern_length = 3;

  /// Maximum offset span of a premise (last premise offset minus first),
  /// 0 = unbounded. Query premises come from a short run of *recent*
  /// movements, so premises spread over wide offset ranges can never
  /// fully match a query; bounding the span keeps level-3+ candidate
  /// generation tractable on dense trajectories without affecting any
  /// reachable prediction. (Documented design decision; see DESIGN.md.)
  Timestamp premise_window = 5;

  /// Apply the paper's two pruning rules (set false only for the
  /// ablation study).
  bool enable_pruning = true;
};

/// Counters describing what the miner did; drives the pruning ablation.
struct AprioriStats {
  size_t num_frequent_itemsets = 0;
  size_t num_candidates_counted = 0;
  /// Rules evaluated against min_confidence (valid, prediction-form ones).
  size_t rules_evaluated = 0;
  /// Rules (passing min_confidence) that pruning rule 1 removed — their
  /// consequence precedes or ties some premise offset.
  size_t rules_pruned_time_order = 0;
  /// Rules (passing min_confidence) that Theorem 1 removed — consequences
  /// with more than one region.
  size_t rules_pruned_multi_consequence = 0;
  /// Patterns surviving all filters.
  size_t patterns_emitted = 0;
};

/// Mining outcome.
struct AprioriResult {
  std::vector<TrajectoryPattern> patterns;
  AprioriStats stats;
};

/// Mines trajectory patterns from transactions. `regions` supplies the
/// offset of each region id (needed for the time-order constraints).
/// Returns InvalidArgument for out-of-domain parameters. With
/// enable_pruning=false the emitted patterns are the same valid ones,
/// but the stats additionally count every rule classic Apriori would have
/// produced, so callers can measure the pruning effect.
StatusOr<AprioriResult> MineTrajectoryPatterns(
    const std::vector<Transaction>& transactions,
    const FrequentRegionSet& regions, const AprioriParams& params);

}  // namespace hpm

#endif  // HPM_MINING_APRIORI_H_
