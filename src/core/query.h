// Predictive-query and prediction types — the public vocabulary of the
// HybridPredictor API.

#ifndef HPM_CORE_QUERY_H_
#define HPM_CORE_QUERY_H_

#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "geo/bounding_box.h"
#include "geo/trajectory.h"

namespace hpm {

class MotionFit;
class QueryContext;

/// A spatio-temporal predictive query: "given these recent movements and
/// the current time, where will the object be at query_time?"
struct PredictiveQuery {
  /// The object's recent movements m_q, oldest first, consecutive unit
  /// timestamps ending at current_time.
  std::vector<TimedPoint> recent_movements;

  /// Current time t_c.
  Timestamp current_time = 0;

  /// Query time t_q (strictly after current_time).
  Timestamp query_time = 0;

  /// Number of predicted locations requested (top-k).
  int k = 1;

  /// Latency budget. When it expires mid-query the predictor degrades to
  /// the motion-function answer (Prediction::degraded says so) rather than
  /// failing. Defaults to no deadline.
  Deadline deadline;

  /// Serving-layer execution context (scratch buffers, trace, per-query
  /// accounting), or null when the predictor is called directly —
  /// evaluation, tools and tests keep the context-free behaviour.
  QueryContext* context = nullptr;

  /// Which of `context`'s scratch lanes this call may use exclusively.
  /// Meaningful only when context != nullptr.
  int lane = 0;

  /// The memoised RMF fit of `recent_movements` under the answering
  /// predictor's RMF options, or null to fit per call. The serving layer
  /// passes its published view's fit here, so the motion-function answer
  /// (fallback or degraded) reuses one fit across queries.
  const MotionFit* motion = nullptr;

  /// Prediction length t_q - t_c.
  Timestamp PredictionLength() const { return query_time - current_time; }
};

/// Where a prediction came from.
enum class PredictionSource {
  kPattern,         ///< A trajectory pattern's consequence centre.
  kMotionFunction,  ///< The motion-function fallback (no pattern matched).
};

/// Why a prediction fell back to the motion function when the pattern side
/// was never consulted to completion. kNone covers both pattern answers and
/// the paper's ordinary fallback (pattern side consulted, no match).
enum class DegradedReason {
  kNone = 0,
  kDeadlineExceeded,    ///< The query's deadline expired mid-evaluation.
  kPatternUnavailable,  ///< Pattern-side lookup failed (e.g. injected fault).
  kOverloaded,          ///< Load shedding: the serving layer skipped the
                        ///< pattern side to protect overall throughput.
};

/// Human-readable name ("None", "DeadlineExceeded", "PatternUnavailable",
/// "Overloaded").
const char* DegradedReasonName(DegradedReason reason);

/// One predicted location.
struct Prediction {
  Point location;

  /// Ranking weight Sp (Equations 2/5) for pattern answers; 0 for
  /// motion-function answers.
  double score = 0.0;

  PredictionSource source = PredictionSource::kMotionFunction;

  /// For pattern answers: which pattern produced it (id into the
  /// predictor's pattern list) and its consequence region / confidence.
  int pattern_id = -1;
  int consequence_region = -1;
  double confidence = 0.0;

  /// For pattern answers: the consequence region's MBR — the natural
  /// uncertainty region around `location` (its centre). Empty for
  /// motion-function answers (point estimates).
  BoundingBox uncertainty;

  /// Non-kNone when this is a motion-function answer produced because the
  /// pattern side could not be (fully) consulted — expired deadline or
  /// pattern-side fault — rather than because no pattern matched.
  DegradedReason degraded = DegradedReason::kNone;

  /// "pattern #12 (conf 0.50, score 0.41) -> (x, y)" style rendering.
  std::string ToString() const;
};

/// Validates the structural requirements on a query (non-empty recent
/// movements with consecutive timestamps ending at current_time, a
/// strictly future query_time, k >= 1). Returns InvalidArgument with a
/// specific message on the first violation.
Status ValidateQuery(const PredictiveQuery& query);

}  // namespace hpm

#endif  // HPM_CORE_QUERY_H_
