#include "net/protocol.h"

#include <cstring>

#include "common/bytes.h"
#include "net/frame.h"

namespace hpm {

namespace {

constexpr uint8_t kLastStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);

// The fewest bytes one counted item takes, by which a body's count is
// refused before anything is reserved for it (bytes::Cursor::Count).
constexpr size_t kMinPredictionBytes = 8 + 8 + 8 + 1 + 8 + 8 + 8 + 1 + 1;
constexpr size_t kMinFleetHitBytes = 8 + kMinPredictionBytes;
constexpr size_t kSegmentBytes = 4 + 8 + 8 + 8;
constexpr size_t kShardBytes = 4;

void PutMsgType(std::string* out, MsgType type) {
  bytes::PutU8(out, static_cast<uint8_t>(type));
}

void PutPrediction(std::string* out, const Prediction& p) {
  bytes::PutF64(out, p.location.x);
  bytes::PutF64(out, p.location.y);
  bytes::PutF64(out, p.score);
  bytes::PutU8(out, static_cast<uint8_t>(p.source));
  bytes::PutI64(out, p.pattern_id);
  bytes::PutI64(out, p.consequence_region);
  bytes::PutF64(out, p.confidence);
  bytes::PutU8(out, p.uncertainty.IsEmpty() ? 0 : 1);
  if (!p.uncertainty.IsEmpty()) {
    bytes::PutF64(out, p.uncertainty.min().x);
    bytes::PutF64(out, p.uncertainty.min().y);
    bytes::PutF64(out, p.uncertainty.max().x);
    bytes::PutF64(out, p.uncertainty.max().y);
  }
  bytes::PutU8(out, static_cast<uint8_t>(p.degraded));
}

// `inline` so GCC 12 at -O2 inlines it into both body decoders rather
// than calling it once per entry.
inline bool GetPrediction(bytes::Cursor* in, Prediction* p) {
  uint8_t source = 0;
  uint8_t degraded = 0;
  bool has_uncertainty = false;
  in->F64(&p->location.x);
  in->F64(&p->location.y);
  in->F64(&p->score);
  in->U8(&source);
  in->Int(&p->pattern_id);
  in->Int(&p->consequence_region);
  in->F64(&p->confidence);
  if (!in->Flag(&has_uncertainty)) return false;
  if (has_uncertainty) {
    Point lo, hi;
    in->F64(&lo.x);
    in->F64(&lo.y);
    in->F64(&hi.x);
    if (!in->F64(&hi.y)) return false;
    // BoundingBox reorders corners and rewrites NaN and -0/+0 pairs; a
    // box it would not keep as sent is refused, so an accepted body
    // re-encodes to the same bytes.
    p->uncertainty = BoundingBox(lo, hi);
    if (std::memcmp(&p->uncertainty.min(), &lo, sizeof(lo)) != 0 ||
        std::memcmp(&p->uncertainty.max(), &hi, sizeof(hi)) != 0) {
      return false;
    }
  }
  if (!in->U8(&degraded)) return false;
  if (source > static_cast<uint8_t>(PredictionSource::kMotionFunction) ||
      degraded > static_cast<uint8_t>(DegradedReason::kOverloaded)) {
    return false;
  }
  p->source = static_cast<PredictionSource>(source);
  p->degraded = static_cast<DegradedReason>(degraded);
  return true;
}

}  // namespace

const char* ServerRoleName(ServerRole role) {
  switch (role) {
    case ServerRole::kPrimary:
      return "primary";
    case ServerRole::kReplica:
      return "replica";
  }
  return "unknown";
}

std::string EncodePing() {
  std::string out;
  PutMsgType(&out, MsgType::kPing);
  return out;
}

std::string EncodeReport(const ReportRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReport);
  bytes::PutI64(&out, req.id);
  bytes::PutI64(&out, req.t);
  bytes::PutF64(&out, req.x);
  bytes::PutF64(&out, req.y);
  return out;
}

std::string EncodePredict(const PredictRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kPredict);
  bytes::PutI64(&out, req.id);
  bytes::PutI64(&out, req.tq);
  bytes::PutU32(&out, static_cast<uint32_t>(req.k));
  bytes::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeRange(const RangeRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kRange);
  bytes::PutF64(&out, req.min_x);
  bytes::PutF64(&out, req.min_y);
  bytes::PutF64(&out, req.max_x);
  bytes::PutF64(&out, req.max_y);
  bytes::PutI64(&out, req.tq);
  bytes::PutU32(&out, static_cast<uint32_t>(req.k_per_object));
  bytes::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeKnn(const KnnRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kKnn);
  bytes::PutF64(&out, req.x);
  bytes::PutF64(&out, req.y);
  bytes::PutI64(&out, req.tq);
  bytes::PutU32(&out, static_cast<uint32_t>(req.n));
  bytes::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeStats() {
  std::string out;
  PutMsgType(&out, MsgType::kStats);
  return out;
}

std::string EncodeReplState(const ReplStateRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReplState);
  bytes::PutU64(&out, req.follower_lag_bytes);
  bytes::PutU64(&out, req.follower_applied_records);
  return out;
}

std::string EncodeReplFetch(const ReplFetchRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReplFetch);
  bytes::PutString(&out, req.name);
  bytes::PutU64(&out, req.offset);
  bytes::PutU32(&out, req.max_bytes);
  return out;
}

std::string EncodeReply(const Status& status, const ReplyInfo& info,
                        const std::string& body) {
  std::string out;
  PutMsgType(&out, MsgType::kReply);
  bytes::PutU8(&out, static_cast<uint8_t>(status.code()));
  bytes::PutString(&out, status.message());
  bytes::PutU8(&out, static_cast<uint8_t>(info.role));
  bytes::PutU64(&out, info.generation);
  bytes::PutU64(&out, info.staleness_us);
  bytes::PutU8(&out, info.stale_degraded ? 1 : 0);
  out += body;
  return out;
}

std::string EncodePredictionsBody(
    const std::vector<Prediction>& predictions) {
  std::string out;
  bytes::PutU32(&out, static_cast<uint32_t>(predictions.size()));
  for (const Prediction& p : predictions) PutPrediction(&out, p);
  return out;
}

std::string EncodeFleetBody(const FleetQueryResult& result) {
  std::string out;
  bytes::PutU8(&out, result.partial ? 1 : 0);
  bytes::PutU32(&out, static_cast<uint32_t>(result.skipped_shards.size()));
  for (int shard : result.skipped_shards) {
    bytes::PutU32(&out, static_cast<uint32_t>(shard));
  }
  bytes::PutU32(&out, static_cast<uint32_t>(result.hits.size()));
  for (const RangeHit& hit : result.hits) {
    bytes::PutI64(&out, hit.id);
    PutPrediction(&out, hit.prediction);
  }
  return out;
}

std::string EncodeStatsBody(const std::string& json) {
  std::string out;
  bytes::PutString(&out, json);
  return out;
}

std::string EncodeReplStateBody(uint64_t generation,
                                const std::vector<WireSegment>& segments) {
  std::string out;
  bytes::PutU64(&out, generation);
  bytes::PutU32(&out, static_cast<uint32_t>(segments.size()));
  for (const WireSegment& segment : segments) {
    bytes::PutU32(&out, static_cast<uint32_t>(segment.shard));
    bytes::PutU64(&out, segment.seq);
    bytes::PutU64(&out, segment.base_gen);
    bytes::PutU64(&out, segment.size);
  }
  return out;
}

std::string EncodeReplFetchBody(uint64_t file_size, bool eof,
                                const std::string& bytes) {
  std::string out;
  bytes::PutU64(&out, file_size);
  bytes::PutU8(&out, eof ? 1 : 0);
  bytes::PutString(&out, bytes);
  return out;
}

Status DecodeReply(const std::string& payload, ReplyInfo* info,
                   std::string* body, Status* transported) {
  bytes::Cursor in(payload);
  uint8_t type = 0;
  uint8_t code = 0;
  uint8_t role = 0;
  std::string message;
  in.U8(&type);
  in.U8(&code);
  in.String(&message);
  in.U8(&role);
  in.U64(&info->generation);
  in.U64(&info->staleness_us);
  // An OK reply carries no message: one that does would not re-encode.
  if (!in.Flag(&info->stale_degraded) ||
      type != static_cast<uint8_t>(MsgType::kReply) ||
      code > kLastStatusCode ||
      role > static_cast<uint8_t>(ServerRole::kReplica) ||
      (code == 0 && !message.empty())) {
    return Status::DataLoss("malformed reply envelope");
  }
  info->role = static_cast<ServerRole>(role);
  if (body != nullptr) *body = payload.substr(in.pos());
  *transported = code == 0
                     ? Status::OK()
                     : Status(static_cast<StatusCode>(code),
                              std::move(message));
  return Status::OK();
}

Status DecodePredictionsBody(const std::string& body,
                             std::vector<Prediction>* predictions) {
  bytes::Cursor in(body);
  uint32_t count = 0;
  if (!in.Count(&count, kMinPredictionBytes)) {
    return Status::DataLoss("malformed predictions body");
  }
  predictions->clear();
  predictions->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Prediction p;
    if (!GetPrediction(&in, &p)) {
      return Status::DataLoss("malformed prediction entry");
    }
    predictions->push_back(std::move(p));
  }
  if (!in.done()) return Status::DataLoss("trailing prediction bytes");
  return Status::OK();
}

Status DecodeFleetBody(const std::string& body, FleetQueryResult* result) {
  bytes::Cursor in(body);
  uint32_t skipped = 0;
  in.Flag(&result->partial);
  if (!in.Count(&skipped, kShardBytes)) {
    return Status::DataLoss("malformed fleet body");
  }
  result->skipped_shards.clear();
  result->skipped_shards.reserve(skipped);
  for (uint32_t i = 0; i < skipped; ++i) {
    uint32_t shard = 0;
    in.U32(&shard);
    result->skipped_shards.push_back(static_cast<int>(shard));
  }
  uint32_t hits = 0;
  if (!in.Count(&hits, kMinFleetHitBytes)) {
    return Status::DataLoss("malformed fleet body");
  }
  result->hits.clear();
  result->hits.reserve(hits);
  for (uint32_t i = 0; i < hits; ++i) {
    RangeHit hit;
    if (!in.I64(&hit.id) || !GetPrediction(&in, &hit.prediction)) {
      return Status::DataLoss("malformed fleet hit");
    }
    result->hits.push_back(std::move(hit));
  }
  if (!in.done()) return Status::DataLoss("trailing fleet bytes");
  return Status::OK();
}

Status DecodeStatsBody(const std::string& body, std::string* json) {
  bytes::Cursor in(body);
  if (!in.String(json) || !in.done()) {
    return Status::DataLoss("malformed stats body");
  }
  return Status::OK();
}

Status DecodeReplStateBody(const std::string& body, uint64_t* generation,
                           std::vector<WireSegment>* segments) {
  bytes::Cursor in(body);
  uint32_t count = 0;
  in.U64(generation);
  if (!in.Count(&count, kSegmentBytes)) {
    return Status::DataLoss("malformed repl-state body");
  }
  segments->clear();
  segments->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireSegment segment;
    uint32_t shard = 0;
    in.U32(&shard);
    in.U64(&segment.seq);
    in.U64(&segment.base_gen);
    in.U64(&segment.size);
    segment.shard = static_cast<int>(shard);
    segments->push_back(segment);
  }
  if (!in.done()) return Status::DataLoss("trailing repl-state bytes");
  return Status::OK();
}

Status DecodeReplFetchBody(const std::string& body, uint64_t* file_size,
                           bool* eof, std::string* bytes) {
  bytes::Cursor in(body);
  in.U64(file_size);
  in.Flag(eof);
  if (!in.String(bytes, kMaxNetPayloadBytes) || !in.done()) {
    return Status::DataLoss("malformed repl-fetch body");
  }
  return Status::OK();
}

Status DecodeRequest(const std::string& payload, Request* request) {
  bytes::Cursor in(payload);
  uint8_t type = 0;
  if (!in.U8(&type)) return Status::DataLoss("empty request");
  request->type = static_cast<MsgType>(type);
  switch (request->type) {
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    case MsgType::kReport:
      in.I64(&request->report.id);
      in.I64(&request->report.t);
      in.F64(&request->report.x);
      in.F64(&request->report.y);
      break;
    case MsgType::kPredict: {
      uint32_t k = 0;
      in.I64(&request->predict.id);
      in.I64(&request->predict.tq);
      in.U32(&k);
      in.U64(&request->predict.deadline_us);
      request->predict.k = static_cast<int32_t>(k);
      break;
    }
    case MsgType::kRange: {
      uint32_t k = 0;
      in.F64(&request->range.min_x);
      in.F64(&request->range.min_y);
      in.F64(&request->range.max_x);
      in.F64(&request->range.max_y);
      in.I64(&request->range.tq);
      in.U32(&k);
      in.U64(&request->range.deadline_us);
      request->range.k_per_object = static_cast<int32_t>(k);
      break;
    }
    case MsgType::kKnn: {
      uint32_t n = 0;
      in.F64(&request->knn.x);
      in.F64(&request->knn.y);
      in.I64(&request->knn.tq);
      in.U32(&n);
      in.U64(&request->knn.deadline_us);
      request->knn.n = static_cast<int32_t>(n);
      break;
    }
    case MsgType::kReplState:
      in.U64(&request->repl_state.follower_lag_bytes);
      in.U64(&request->repl_state.follower_applied_records);
      break;
    case MsgType::kReplFetch:
      in.String(&request->repl_fetch.name, 4096);
      in.U64(&request->repl_fetch.offset);
      in.U32(&request->repl_fetch.max_bytes);
      break;
    case MsgType::kReply:
      return Status::DataLoss("reply message sent as request");
    default:
      return Status::DataLoss("unknown message type " +
                              std::to_string(type));
  }
  if (!in.done()) {
    return Status::DataLoss("malformed request body for type " +
                            std::to_string(type));
  }
  return Status::OK();
}

}  // namespace hpm
