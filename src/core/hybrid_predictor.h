// HybridPredictor: the paper's primary contribution, tying together the
// discovery pipeline (§IV), the Trajectory Pattern Tree (§V) and the
// Hybrid Prediction Algorithm with its two query processors (§VI).
//
// The processors are straight-line code, as the paper writes them: FQP
// (Algorithm 2) encodes the query key, runs one FrozenTpt::SearchInto,
// scores the hits by Equation 2 and ranks them; BQP (Algorithm 3) does
// the same on the consequence part with Equation 5, in the first
// widening round that hits before the interval reaches the current time.
// A consequence-only search hits exactly when the round's interval holds
// an offset some pattern concludes at, so that round is found from the
// model's offsets and searched once. Either processor falls back to the
// RMF motion function when no pattern qualifies.

#ifndef HPM_CORE_HYBRID_PREDICTOR_H_
#define HPM_CORE_HYBRID_PREDICTOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/query.h"
#include "core/similarity.h"
#include "mining/apriori.h"
#include "mining/frequent_region.h"
#include "motion/recursive_motion.h"
#include "tpt/frozen_tpt.h"
#include "tpt/key_tables.h"

namespace hpm {

struct PredictScratch;
struct ScoredHit;

/// Everything that configures training and query processing.
struct HybridPredictorOptions {
  /// Discovery: period T, DBSCAN Eps/MinPts, sub-trajectory limit.
  FrequentRegionParams regions;

  /// Pattern mining: min confidence/support, pattern length bounds.
  AprioriParams mining;

  /// TPT node capacity (the packer's; see TptOptions).
  TptOptions tpt;

  /// Premise-weight family (paper recommends linear or quadratic).
  WeightFunction weight_function = WeightFunction::kLinear;

  /// Distant-time threshold d (Definition 2): queries with prediction
  /// length >= d use Backward Query Processing.
  Timestamp distant_threshold = 60;

  /// Time relaxation length t_eps for BQP (paper: best at 1..3).
  Timestamp time_relaxation = 2;

  /// Distance slack when matching recent movements to frequent-region
  /// MBRs (0 = strict containment).
  double region_match_slack = 0.0;

  /// Only the last `premise_horizon` recent movements feed the query
  /// premise key (0 = all). The motion-function fallback always sees the
  /// full recent window — the premise is about *which regions were just
  /// visited*, while the fallback wants as much kinematic history as it
  /// can get.
  int premise_horizon = 0;

  /// Configuration of the RMF fallback motion function.
  RmfOptions rmf;
};

/// Summary of a training run, for reporting and experiments.
struct TrainingSummary {
  size_t num_sub_trajectories = 0;
  size_t num_frequent_regions = 0;
  size_t num_patterns = 0;
  AprioriStats mining_stats;

  /// Bytes of the frozen arena actually served from (tpt.frozen_bytes).
  size_t tpt_frozen_bytes = 0;
  int tpt_height = 0;
  double train_seconds = 0.0;
};

/// Ranks the scored pattern hits of one query and materialises the best
/// min(k, hits) of them as predictions, best first (FQP/BQP's "return the
/// top k"). The order is total, so the answer never depends on the order
/// the TPT search produced the hits in:
///   1. score Sp, descending;
///   2. rule confidence, descending;
///   3. pattern id, ascending.
/// Only the winners are ordered (a bounded partial sort) and only they
/// become Predictions, with location and uncertainty taken from their
/// consequence region in `regions`. Nothing is sized by `k`, so any
/// k >= 1 — INT32_MAX included — costs at most what k = hits.size()
/// does. `*hits` may be per-query scratch: it is reordered in place and
/// left behind rather than consumed.
std::vector<Prediction> RankAndTake(std::vector<ScoredHit>* hits, int k,
                                    const FrequentRegionSet& regions);

/// The query-processing options Train and LoadFromFile require:
/// 0 < distant_threshold < period and 0 <= time_relaxation <= period
/// (InvalidArgument otherwise). The upper bound keeps BQP's interval
/// arithmetic far from overflow.
Status ValidateQueryOptions(const HybridPredictorOptions& options);

/// A range of period offsets, both ends inclusive. `lo > hi` means the
/// range wraps the period: [lo, period) followed by [0, hi].
struct OffsetInterval {
  Timestamp lo = 0;
  Timestamp hi = 0;
};

/// BQP's consequence interval in widening round `round` >= 1
/// (Algorithm 3): the raw times [tq - round * t_eps, tq + round * t_eps]
/// as period offsets, for t_eps >= 1. An interval spanning a period or
/// more (2 * round * t_eps >= period) covers every offset. The offsets
/// are taken from tq mod period, so every int64 tq is safe.
OffsetInterval BackwardRoundInterval(Timestamp tq, Timestamp round,
                                     Timestamp t_eps, Timestamp period);

/// The round after which BQP stops widening for a query from `now` at
/// `tq`: the first round r >= 1 whose next widening would reach the
/// current time, i.e. tq - (r + 1) * t_eps <= now. When no round up to
/// it hits, BQP falls back to the motion function. Closed form, so a far
/// horizon costs no more than a near one; HybridPredictor::
/// BackwardAnswerRound bounds its search by this round and the period.
Timestamp LastBackwardRound(Timestamp tq, Timestamp now, Timestamp t_eps);

/// The region centres a pattern answer can take, as at most two
/// contiguous runs (a BQP interval may wrap the period).
struct CentreRuns {
  std::span<const Point> runs[2];
};

/// A trained Hybrid Prediction Model for one moving object.
///
/// Train() mines the object's history once; Predict() answers any number
/// of queries. The model is immutable after training and keeps no
/// per-query state: each answer says how it was produced
/// (Prediction::source, Prediction::degraded), and the serving layer
/// counts answers in its QueryContext. So a trained predictor is safe to
/// share across concurrently-predicting readers. Updates produce *new*
/// predictors via WithNewHistory(); the only mutating member,
/// set_weight_function(), must be externally serialised against readers
/// (the serving layer never mutates a shared predictor).
class HybridPredictor {
 public:
  /// Mines frequent regions and trajectory patterns from `history` and
  /// indexes them in a TPT. Fails when the history is shorter than one
  /// period or parameters are invalid.
  static StatusOr<std::unique_ptr<HybridPredictor>> Train(
      const Trajectory& history, const HybridPredictorOptions& options);

  /// Answers a predictive query with the Hybrid Prediction Algorithm:
  /// Forward Query Processing for prediction lengths below the distant
  /// threshold, Backward Query Processing at or above it, with the
  /// motion function as fallback when no pattern qualifies. Returns at
  /// most k predictions, best first (pattern answers carry scores;
  /// fallback answers are single).
  StatusOr<std::vector<Prediction>> Predict(const PredictiveQuery& query) const;

  /// Forward Query Processing (Algorithm 2), callable directly.
  StatusOr<std::vector<Prediction>> ForwardQuery(
      const PredictiveQuery& query) const;

  /// Backward Query Processing (Algorithm 3), callable directly.
  StatusOr<std::vector<Prediction>> BackwardQuery(
      const PredictiveQuery& query) const;

  /// The motion-function answer alone (no pattern lookup) — the
  /// comparison baseline inside HPM. Reuses `query.motion` when set.
  StatusOr<Prediction> MotionFunctionPredict(
      const PredictiveQuery& query) const;

  /// The round BQP answers a query from `now` at `tq` from: the first
  /// round in [1, LastBackwardRound] whose consequence interval holds an
  /// offset some pattern concludes at, or none when no such round exists
  /// (BQP then answers from the motion function). It depends on the
  /// model's consequence offsets alone, not on the query's premise. The
  /// search stops at the first round spanning the period, so it takes at
  /// most period / (2 * t_eps) + 1 rounds whatever the horizon. Requires
  /// tq > now.
  std::optional<Timestamp> BackwardAnswerRound(Timestamp now,
                                               Timestamp tq) const;

  /// Every location a pattern answer to a query from `now` at `tq` can
  /// take: the centres of the consequence regions at offset tq mod T
  /// when FQP answers, or of those inside the interval of
  /// BackwardAnswerRound (the one interval BQP searches) when BQP does;
  /// none when BQP has no answering round. Together with the
  /// motion-function answer this bounds whatever Predict returns, which
  /// lets fleet queries skip objects whose every possible answer misses
  /// them. Requires tq > now.
  CentreRuns PatternAnswerCentres(Timestamp now, Timestamp tq) const;

  /// The load-shedding entry point: answers `query` with the RMF motion
  /// function alone, stamped with `reason`, without touching the pattern
  /// side. The answer is the one Predict() gives when its deadline has
  /// expired, stamped with `reason` instead. `reason` must not be kNone.
  StatusOr<std::vector<Prediction>> DegradedPredict(
      const PredictiveQuery& query, DegradedReason reason) const;

  /// Dynamic data (paper §V-B): "When a certain amount of new data is
  /// accumulated, the system mines new patterns and adds them up to TPT
  /// by using the insertion algorithm."
  ///
  /// `new_history` is the newly accumulated movement data (at least one
  /// complete period). Its locations are matched to the *existing*
  /// frequent regions, patterns are mined over the new sub-trajectories,
  /// and rules not yet indexed are added to the pattern set. Confidences
  /// of the added rules reflect the new batch. If a new rule concludes
  /// at a time offset the consequence-key table has never seen, the key
  /// tables are rebuilt (keys change length); otherwise the keys are
  /// unchanged and only the pattern set grows.
  ///
  /// *this is left untouched: the result is a fresh predictor carrying
  /// the combined pattern set; the number of patterns added is the
  /// difference of the two pattern counts. The fresh instance's arena is
  /// packed from the combined pattern set; a packed layout depends on
  /// the entries alone, not on the order they were added in. Unless the
  /// keys change length, the existing entries keep the key blocks they
  /// have in this arena, and only the added rules are encoded. Safe to
  /// call while other threads Predict() on *this.
  StatusOr<std::unique_ptr<HybridPredictor>> WithNewHistory(
      const Trajectory& new_history) const;

  /// Persists the trained model (options, frequent regions, the
  /// sub-trajectory count and the frozen TPT arena, which holds the
  /// patterns) to a binary file. Storing the arena lets load validate
  /// bytes instead of packing again; the arena section carries its own
  /// CRC on top of the file footer, so corruption surfaces as DataLoss
  /// (→ store quarantine), never as a differently-shaped index.
  Status SaveToFile(const std::string& path) const;

  /// Restores a model written by SaveToFile. The arena is checked against
  /// the regions (key widths, consequence regions and bits, pattern ids,
  /// confidences) and the key tables are rebuilt from its payloads.
  /// Fails with InvalidArgument on a malformed/foreign file, DataLoss on
  /// a torn, rotted or inconsistent one, and FailedPrecondition on a
  /// version mismatch (a file of an older format does not load).
  static StatusOr<std::unique_ptr<HybridPredictor>> LoadFromFile(
      const std::string& path);

  const TrainingSummary& summary() const { return summary_; }

  /// Runtime-tunable ranking knob: switches the premise-weight family
  /// without retraining (the weights only affect query scoring). Not
  /// thread-safe: call before sharing the predictor across threads.
  void set_weight_function(WeightFunction fn) {
    options_.weight_function = fn;
  }

  const FrequentRegionSet& regions() const { return regions_; }

  /// The mined pattern table, in pattern-id order, derived on each call
  /// from the frozen arena: premise region ids are the set premise bits
  /// of each leaf entry's key block (KeyTables maps region id i to bit
  /// i), and consequence, confidence and support come from its payload.
  /// The model keeps no other copy of its patterns, and model files do
  /// not store this table; it is for the §V-B update, tests and
  /// inspection, never the query path.
  std::vector<TrajectoryPattern> PatternTable() const;

  /// The frozen serving index — the whole pattern side of the model.
  const FrozenTpt& tpt() const { return tpt_; }
  const KeyTables& key_tables() const { return key_tables_; }
  const HybridPredictorOptions& options() const { return options_; }

 private:
  HybridPredictor(HybridPredictorOptions options, FrequentRegionSet regions,
                  KeyTables key_tables, FrozenTpt tpt);

  /// True when a query of this prediction length is answered by BQP.
  bool IsDistant(Timestamp prediction_length) const {
    return prediction_length >= options_.distant_threshold;
  }

  /// BQP's widening step t_eps (at least 1, so the rounds terminate).
  Timestamp RelaxationStep() const {
    return std::max<Timestamp>(1, options_.time_relaxation);
  }

  /// Shared §V-B front half: decomposes `new_history`, maps it onto the
  /// existing regions, mines, and drops every rule the arena already
  /// indexes (same premise, same consequence region). Sets
  /// `*new_consequence_offset` when a mined rule concludes at a time
  /// offset the consequence-key table has never seen.
  StatusOr<std::vector<TrajectoryPattern>> MineFreshPatterns(
      const Trajectory& new_history, bool* new_consequence_offset) const;

  /// Maps recent movements to visited frequent regions (query premise).
  std::vector<int> QueryPremise(const PredictiveQuery& query) const;

  /// What Predict, ForwardQuery and BackwardQuery share: validates
  /// `query` and serves the degraded RMF answer when the deadline has
  /// expired or the pattern side faults. Otherwise runs ForwardBody or
  /// BackwardBody on the scratch of the query's context lane
  /// (function-local buffers without a context).
  StatusOr<std::vector<Prediction>> Answer(const PredictiveQuery& query,
                                           bool backward) const;

  /// Algorithm 2 after the shared preamble: encode the premise and the
  /// query offset, search, score by Equation 2, rank.
  StatusOr<std::vector<Prediction>> ForwardBody(const PredictiveQuery& query,
                                                PredictScratch* scratch) const;

  /// Algorithm 3 after the shared preamble: search the interval of
  /// BackwardAnswerRound on the consequence part and score its hits by
  /// Equation 5, or fall back when no round answers. The rounds before
  /// it hold no consequence offset, so the paper's loop would search
  /// nothing in them.
  StatusOr<std::vector<Prediction>> BackwardBody(
      const PredictiveQuery& query, PredictScratch* scratch) const;

  /// The "no qualified pattern" answer both processors end in: the motion
  /// function's prediction.
  StatusOr<std::vector<Prediction>> MotionFallback(
      const PredictiveQuery& query) const;

  /// The graceful-degradation answer: the RMF motion-function prediction
  /// stamped with `reason`.
  StatusOr<std::vector<Prediction>> DegradedAnswer(
      const PredictiveQuery& query, DegradedReason reason) const;

  HybridPredictorOptions options_;
  FrequentRegionSet regions_;
  KeyTables key_tables_;
  FrozenTpt tpt_;
  /// The centres of consequence regions at offsets `in` holds, as one
  /// run, or two when `in` wraps the period.
  CentreRuns CentresIn(OffsetInterval in) const;

  /// Centres of the regions some pattern concludes in, in region-id
  /// (hence offset) order; those at offset t are
  /// [centre_begin_[t], centre_begin_[t + 1]).
  std::vector<Point> consequence_centres_;
  std::vector<uint32_t> centre_begin_;
  TrainingSummary summary_;
};

}  // namespace hpm

#endif  // HPM_CORE_HYBRID_PREDICTOR_H_
