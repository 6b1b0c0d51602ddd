// Shared vocabulary of the serving layer: object ids and fleet-query
// results. Split out of object_store.h so the query pipeline
// (server/query_pipeline.h) and the store can both speak these types
// without a circular include.

#ifndef HPM_SERVER_STORE_TYPES_H_
#define HPM_SERVER_STORE_TYPES_H_

#include <cstdint>
#include <vector>

#include "core/query.h"

namespace hpm {

/// Identifies one tracked moving object.
using ObjectId = int64_t;

/// One object's answer to a predictive range query.
struct RangeHit {
  ObjectId id = 0;

  /// The best-scored prediction that falls inside the query range.
  Prediction prediction;
};

/// Result of a fleet query (range / kNN). `partial` is the
/// overload-resilience contract: a shard whose share of the fan-out
/// failed is *skipped* — the query still answers from the other shards
/// instead of failing end to end.
struct FleetQueryResult {
  /// Hits from every shard that answered, in the query's sort order.
  std::vector<RangeHit> hits;

  /// True when at least one shard did not contribute.
  bool partial = false;

  /// Indices of the shards whose share failed during this call,
  /// ascending.
  std::vector<int> skipped_shards;
};

}  // namespace hpm

#endif  // HPM_SERVER_STORE_TYPES_H_
