#include "core/motion_fit.h"

#include "core/exec_context.h"

namespace hpm {

Point MotionFit::Predict(Timestamp tq, QueryContext* ctx) const {
  std::call_once(once_, [&] {
    if (ctx != nullptr) ctx->CountMotionFit();
    fitted_ = rmf_.Fit(*recent_).ok();
  });
  if (fitted_) {
    StatusOr<Point> p = rmf_.Predict(tq);
    if (p.ok()) return *p;
  }
  // Degenerate history (a single point): the best available answer is
  // the last known location.
  return recent_->back().location;
}

}  // namespace hpm
