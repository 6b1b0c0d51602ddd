// The motion-function answer of the Hybrid Prediction Algorithm (paper
// §VI: Algorithm 2 line 6, Algorithm 3 line 11) over one fixed window of
// recent movements, fitted at most once.
//
// The RMF fit is the expensive half of that answer (an SVD per candidate
// retrospect); extrapolating the fitted recurrence to a query time is
// cheap. A MotionFit runs the fit on its first Predict and lets every
// later call — from any thread — reuse it, so the serving layer fits an
// object's recent window once per report however many queries read it.

#ifndef HPM_CORE_MOTION_FIT_H_
#define HPM_CORE_MOTION_FIT_H_

#include <mutex>
#include <vector>

#include "geo/trajectory.h"
#include "motion/recursive_motion.h"

namespace hpm {

class QueryContext;

class MotionFit {
 public:
  /// `recent` (oldest first, unit-spaced timestamps) must outlive the
  /// fit and stay unchanged while it lives.
  MotionFit(const std::vector<TimedPoint>* recent, const RmfOptions& options)
      : recent_(recent), rmf_(options) {}

  MotionFit(const MotionFit&) = delete;
  MotionFit& operator=(const MotionFit&) = delete;

  /// The RMF answer at `tq`: the fitted recurrence's prediction, or the
  /// last recent location when the window is too short to fit or the
  /// recurrence cannot reach `tq`. The first call fits and counts the fit
  /// on `ctx` (may be null); concurrent first calls fit exactly once.
  Point Predict(Timestamp tq, QueryContext* ctx) const;

 private:
  const std::vector<TimedPoint>* recent_;
  mutable std::once_flag once_;
  /// Written only inside `once_`, read only after it.
  mutable RecursiveMotionFunction rmf_;
  mutable bool fitted_ = false;
};

}  // namespace hpm

#endif  // HPM_CORE_MOTION_FIT_H_
