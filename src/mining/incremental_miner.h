// IncrementalMiner: continuous counterpart of the offline Apriori pass.
//
// The offline pipeline (mining/offline_miner.h) fits a model once from a
// static history. Under continuous ingest the store instead advances an
// IncrementalMiner — per object — over the history it appends to. The
// miner maintains the frequent-region support counts and the
// Apriori-derived pattern set over a sliding window of complete periods,
// plus a decayed drift score that tells the serving layer when the
// maintained set has diverged enough from the published model to justify
// a rebuild (GeT_Move's incremental maintenance idea applied to this
// paper's pattern language; see docs/ARCHITECTURE.md §incremental
// mining).
//
// Representation. The window holds at most 64 periods, and period p
// lives in slot p mod window_periods. Each region keeps one 64-bit slot
// mask: bit s is set when slot s's transaction contains the region. An
// item set's window support is the popcount of its regions' masks ANDed
// together, so nothing else is stored — no item-set table, no copy of
// the window's points (the window is a range of the caller's history)
// and no copy of the region set (the miner shares the published
// model's).
//
// Exactness contract. Window supports are *exact*, not decayed, so the
// maintained rule set — support and confidence included — equals the
// offline miner's over the same window and region universe, which is
// what prop_incremental_mining_test proves differentially. A completing
// period counts +1 for every constraint-valid item set it contains
// before the period leaving the window counts -1 for its own; a set
// crossing min_support either way is a promote/demote event. Decay
// applies only to the drift score, never to counts.
//
// Thread safety: none. The store drives each object's miner under its
// shard writer mutex, exactly like the history it reads.

#ifndef HPM_MINING_INCREMENTAL_MINER_H_
#define HPM_MINING_INCREMENTAL_MINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "geo/trajectory.h"
#include "mining/apriori.h"
#include "mining/frequent_region.h"

namespace hpm {

struct IncrementalMinerOptions {
  /// Complete sub-trajectories in the window (the mining window and the
  /// history a rebuild re-mines), 1..64.
  int window_periods = 16;

  /// Per-transaction multiplicative decay of the drift score: calm
  /// periods pull accumulated drift back toward zero.
  double drift_decay = 0.9;

  /// Drift added per support-threshold crossing (a pattern-set
  /// promote/demote event).
  double crossing_weight = 1.0;

  /// Drift added per fully-unmatched period (scaled by the fraction of
  /// the period's points no adopted region contains — the signal that
  /// the region universe itself has gone stale).
  double unmatched_weight = 1.0;

  /// MBR slack when matching points to adopted regions (mirrors
  /// HybridPredictorOptions::region_match_slack).
  double region_match_slack = 0.0;
};

/// Cumulative per-miner accounting, mirrored into the store's miner.*
/// metrics via MinerMetricHooks.
struct MinerStats {
  uint64_t transactions = 0;
  uint64_t unmatched_points = 0;
  uint64_t promoted = 0;
  uint64_t demoted = 0;
};

/// Optional metric sinks (registry counters owned by the store). Null
/// pointers are skipped, so a standalone miner needs no registry.
struct MinerMetricHooks {
  Counter* transactions = nullptr;
  Counter* unmatched_points = nullptr;
  Counter* promoted = nullptr;
  Counter* demoted = nullptr;
};

class IncrementalMiner {
 public:
  /// The largest window: one bit of a region's slot mask per period.
  static constexpr int kMaxWindowPeriods = 64;

  /// `period` is the paper's T; `mining` the Apriori thresholds the
  /// maintained set must agree with (same values the offline rebuild
  /// uses, or the differential guarantee is vacuous).
  IncrementalMiner(IncrementalMinerOptions options, Timestamp period,
                   AprioriParams mining);

  void set_metric_hooks(const MinerMetricHooks& hooks) { hooks_ = hooks; }

  /// Catches up with `history`, whose first total_observed() samples the
  /// miner has already seen (the store calls it after every append).
  /// Each period boundary crossed completes a sub-trajectory: it enters
  /// the window and its item sets are counted, the oldest window period
  /// expires, and the drift score advances.
  void Observe(const Trajectory& history);

  /// Installs a (re)built region universe, shared with the model that
  /// owns it: the window's periods are re-mapped from `history` (the
  /// trajectory Observe has been fed), the slot masks are re-derived
  /// from scratch, and drift resets to zero. Called right after a
  /// (re)built model is published.
  void AdoptRegions(std::shared_ptr<const FrequentRegionSet> regions,
                    const Trajectory& history);

  /// Rebuilds miner state from a persisted history the way live ingest
  /// built it: catches up through absolute sample index `adopted_at`
  /// (the store's consumed-samples mark — the window end the serving
  /// model was built at, a period multiple), adopts `regions` there
  /// (when non-null), then observes the rest. Because exact window
  /// counts are a pure function of window contents, the primed miner
  /// matches the pre-crash miner's counts and post-`adopted_at` drift
  /// exactly; see prop_incremental_mining_test's crash/replay property.
  /// Stats and hooks count only the periods past `adopted_at`.
  void Prime(const Trajectory& history, size_t adopted_at,
             std::shared_ptr<const FrequentRegionSet> regions);

  /// Decayed divergence score (threshold crossings + unmatched mass).
  double drift() const { return drift_; }

  bool has_regions() const { return regions_ != nullptr; }
  const FrequentRegionSet* regions() const { return regions_.get(); }

  /// Absolute samples fed so far (including the current partial period).
  size_t total_observed() const { return observed_; }

  /// Absolute sample range [window_begin(), window_end()) of the window:
  /// complete periods only, so window_end() is the last period boundary.
  /// This range of the history is what a rebuild re-mines.
  size_t window_begin() const {
    return (periods_seen_ - WindowSize()) * static_cast<size_t>(period_);
  }
  size_t window_end() const {
    return periods_seen_ * static_cast<size_t>(period_);
  }

  /// Complete sub-trajectories currently in the window.
  size_t WindowSize() const;

  /// The maintained rule set, derived from the window supports with the
  /// offline rule-generation semantics (premise = all but the max-offset
  /// item, confidence = supp(set)/supp(premise) >= min_confidence).
  /// Returned sorted by (size, items) for deterministic comparison.
  std::vector<TrajectoryPattern> CurrentPatterns() const;

  /// Window support of an item set (region ids): the number of window
  /// periods whose transaction contains every id. 0 before regions are
  /// adopted, for an empty set and for unknown ids.
  int SupportOf(const std::vector<int>& items) const;

  /// Bytes this miner owns: the object and its slot masks. The shared
  /// region set belongs to the model and is not counted.
  size_t MemoryBytes() const;

  const MinerStats& stats() const { return stats_; }

 private:
  /// Observe, stopping at absolute sample `end` (<= history.size()).
  void ObserveThrough(const Trajectory& history, size_t end);
  void FinalizePeriod(const Trajectory& history);
  /// Maps the period starting at absolute sample `begin` of `history`
  /// onto the adopted regions: ascending distinct region ids into
  /// `*items`; returns the number of unmatched points.
  size_t MapPeriod(const Trajectory& history, size_t begin,
                   std::vector<int>* items) const;
  /// The AND of `items`' slot masks.
  uint64_t MaskOf(const std::vector<int>& items) const;
  /// Walks every constraint-valid item set drawn from `items` (ascending
  /// ids) with size in [2, max_pattern_length] — strictly increasing
  /// offsets, premise span bounded: the offline candidate language —
  /// calling `visit(set, mask)` with the AND of the set's slot masks. A
  /// set whose mask has fewer than `floor` bits is neither visited nor
  /// extended: support only falls as a set grows.
  template <typename Fn>
  void ForEachValidItemset(const std::vector<int>& items, int floor,
                           Fn&& visit) const;
  /// Counts the sets of `items` whose support under the current masks
  /// is exactly min_support - 1 (the ones a +1 promotes, or that a -1
  /// has just demoted).
  size_t CountAtThreshold(const std::vector<int>& items) const;

  IncrementalMinerOptions options_;
  Timestamp period_;
  AprioriParams mining_;
  MinerMetricHooks hooks_;

  /// The published model's region set (an aliasing handle into it).
  std::shared_ptr<const FrequentRegionSet> regions_;
  /// Slot mask per region id (empty until regions are adopted).
  std::vector<uint64_t> masks_;

  size_t observed_ = 0;
  size_t periods_seen_ = 0;

  double drift_ = 0.0;

  MinerStats stats_;
};

}  // namespace hpm

#endif  // HPM_MINING_INCREMENTAL_MINER_H_
