#include "net/protocol.h"

#include "net/frame.h"
#include "net/wire.h"

namespace hpm {

namespace {

constexpr uint8_t kLastStatusCode = static_cast<uint8_t>(StatusCode::kDataLoss);
constexpr size_t kMaxListedSegments = 1 << 16;
constexpr size_t kMaxResultEntries = 1 << 20;

void PutMsgType(std::string* out, MsgType type) {
  wire::PutU8(out, static_cast<uint8_t>(type));
}

void PutPrediction(std::string* out, const Prediction& p) {
  wire::PutF64(out, p.location.x);
  wire::PutF64(out, p.location.y);
  wire::PutF64(out, p.score);
  wire::PutU8(out, static_cast<uint8_t>(p.source));
  wire::PutI64(out, p.pattern_id);
  wire::PutI64(out, p.consequence_region);
  wire::PutF64(out, p.confidence);
  wire::PutU8(out, p.uncertainty.IsEmpty() ? 0 : 1);
  if (!p.uncertainty.IsEmpty()) {
    wire::PutF64(out, p.uncertainty.min().x);
    wire::PutF64(out, p.uncertainty.min().y);
    wire::PutF64(out, p.uncertainty.max().x);
    wire::PutF64(out, p.uncertainty.max().y);
  }
  wire::PutU8(out, static_cast<uint8_t>(p.degraded));
}

bool GetPrediction(wire::Cursor* cursor, Prediction* p) {
  uint8_t source = 0;
  uint8_t degraded = 0;
  uint8_t has_uncertainty = 0;
  int64_t pattern_id = 0;
  int64_t consequence_region = 0;
  cursor->F64(&p->location.x);
  cursor->F64(&p->location.y);
  cursor->F64(&p->score);
  cursor->U8(&source);
  cursor->I64(&pattern_id);
  cursor->I64(&consequence_region);
  cursor->F64(&p->confidence);
  if (!cursor->U8(&has_uncertainty)) return false;
  if (has_uncertainty != 0) {
    Point lo, hi;
    cursor->F64(&lo.x);
    cursor->F64(&lo.y);
    cursor->F64(&hi.x);
    if (!cursor->F64(&hi.y)) return false;
    p->uncertainty = BoundingBox(lo, hi);
  }
  if (!cursor->U8(&degraded)) return false;
  if (source > static_cast<uint8_t>(PredictionSource::kMotionFunction) ||
      degraded > static_cast<uint8_t>(DegradedReason::kOverloaded)) {
    return false;
  }
  p->source = static_cast<PredictionSource>(source);
  p->degraded = static_cast<DegradedReason>(degraded);
  p->pattern_id = static_cast<int>(pattern_id);
  p->consequence_region = static_cast<int>(consequence_region);
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
  wire::PutI64(&out, req.id);
  wire::PutI64(&out, req.t);
  wire::PutF64(&out, req.x);
  wire::PutF64(&out, req.y);
  return out;
}

std::string EncodePredict(const PredictRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kPredict);
  wire::PutI64(&out, req.id);
  wire::PutI64(&out, req.tq);
  wire::PutU32(&out, static_cast<uint32_t>(req.k));
  wire::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeRange(const RangeRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kRange);
  wire::PutF64(&out, req.min_x);
  wire::PutF64(&out, req.min_y);
  wire::PutF64(&out, req.max_x);
  wire::PutF64(&out, req.max_y);
  wire::PutI64(&out, req.tq);
  wire::PutU32(&out, static_cast<uint32_t>(req.k_per_object));
  wire::PutU64(&out, req.deadline_us);
  return out;
}

std::string EncodeKnn(const KnnRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kKnn);
  wire::PutF64(&out, req.x);
  wire::PutF64(&out, req.y);
  wire::PutI64(&out, req.tq);
  wire::PutU32(&out, static_cast<uint32_t>(req.n));
  wire::PutU64(&out, req.deadline_us);
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
  wire::PutU64(&out, req.follower_lag_bytes);
  wire::PutU64(&out, req.follower_applied_records);
  return out;
}

std::string EncodeReplFetch(const ReplFetchRequest& req) {
  std::string out;
  PutMsgType(&out, MsgType::kReplFetch);
  wire::PutString(&out, req.name);
  wire::PutU64(&out, req.offset);
  wire::PutU32(&out, req.max_bytes);
  return out;
}

std::string EncodeReply(const Status& status, const ReplyInfo& info,
                        const std::string& body) {
  std::string out;
  PutMsgType(&out, MsgType::kReply);
  wire::PutU8(&out, static_cast<uint8_t>(status.code()));
  wire::PutString(&out, status.message());
  wire::PutU8(&out, static_cast<uint8_t>(info.role));
  wire::PutU64(&out, info.generation);
  wire::PutU64(&out, info.staleness_us);
  wire::PutU8(&out, info.stale_degraded ? 1 : 0);
  out += body;
  return out;
}

std::string EncodePredictionsBody(
    const std::vector<Prediction>& predictions) {
  std::string out;
  wire::PutU32(&out, static_cast<uint32_t>(predictions.size()));
  for (const Prediction& p : predictions) PutPrediction(&out, p);
  return out;
}

std::string EncodeFleetBody(const FleetQueryResult& result) {
  std::string out;
  wire::PutU8(&out, result.partial ? 1 : 0);
  wire::PutU32(&out, static_cast<uint32_t>(result.skipped_shards.size()));
  for (int shard : result.skipped_shards) {
    wire::PutU32(&out, static_cast<uint32_t>(shard));
  }
  wire::PutU32(&out, static_cast<uint32_t>(result.hits.size()));
  for (const RangeHit& hit : result.hits) {
    wire::PutI64(&out, hit.id);
    PutPrediction(&out, hit.prediction);
  }
  return out;
}

std::string EncodeStatsBody(const std::string& json) {
  std::string out;
  wire::PutString(&out, json);
  return out;
}

std::string EncodeReplStateBody(uint64_t generation,
                                const std::vector<WireSegment>& segments) {
  std::string out;
  wire::PutU64(&out, generation);
  wire::PutU32(&out, static_cast<uint32_t>(segments.size()));
  for (const WireSegment& segment : segments) {
    wire::PutU32(&out, static_cast<uint32_t>(segment.shard));
    wire::PutU64(&out, segment.seq);
    wire::PutU64(&out, segment.base_gen);
    wire::PutU64(&out, segment.size);
  }
  return out;
}

std::string EncodeReplFetchBody(uint64_t file_size, bool eof,
                                const std::string& bytes) {
  std::string out;
  wire::PutU64(&out, file_size);
  wire::PutU8(&out, eof ? 1 : 0);
  wire::PutString(&out, bytes);
  return out;
}

Status DecodeReply(const std::string& payload, ReplyInfo* info,
                   std::string* body, Status* transported) {
  wire::Cursor cursor(payload);
  uint8_t type = 0;
  uint8_t code = 0;
  uint8_t role = 0;
  uint8_t stale_degraded = 0;
  std::string message;
  cursor.U8(&type);
  cursor.U8(&code);
  cursor.String(&message);
  cursor.U8(&role);
  cursor.U64(&info->generation);
  cursor.U64(&info->staleness_us);
  if (!cursor.U8(&stale_degraded) ||
      type != static_cast<uint8_t>(MsgType::kReply) ||
      code > kLastStatusCode ||
      role > static_cast<uint8_t>(ServerRole::kReplica)) {
    return Status::DataLoss("malformed reply envelope");
  }
  info->role = static_cast<ServerRole>(role);
  info->stale_degraded = stale_degraded != 0;
  if (body != nullptr) {
    // The envelope is everything the fixed reads above consumed; the
    // body is the remainder. Re-derive its offset from the sizes.
    const size_t envelope_bytes = 1 + 1 + 4 + message.size() + 1 + 8 + 8 + 1;
    *body = payload.substr(envelope_bytes);
  }
  *transported = code == 0
                     ? Status::OK()
                     : Status(static_cast<StatusCode>(code),
                              std::move(message));
  return Status::OK();
}

Status DecodePredictionsBody(const std::string& body,
                             std::vector<Prediction>* predictions) {
  wire::Cursor cursor(body);
  uint32_t count = 0;
  if (!cursor.U32(&count) || count > kMaxResultEntries) {
    return Status::DataLoss("malformed predictions body");
  }
  predictions->clear();
  predictions->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Prediction p;
    if (!GetPrediction(&cursor, &p)) {
      return Status::DataLoss("malformed prediction entry");
    }
    predictions->push_back(std::move(p));
  }
  if (!cursor.done()) return Status::DataLoss("trailing prediction bytes");
  return Status::OK();
}

Status DecodeFleetBody(const std::string& body, FleetQueryResult* result) {
  wire::Cursor cursor(body);
  uint8_t partial = 0;
  uint32_t skipped = 0;
  cursor.U8(&partial);
  if (!cursor.U32(&skipped) || skipped > kMaxResultEntries) {
    return Status::DataLoss("malformed fleet body");
  }
  result->partial = partial != 0;
  result->skipped_shards.clear();
  for (uint32_t i = 0; i < skipped; ++i) {
    uint32_t shard = 0;
    if (!cursor.U32(&shard)) return Status::DataLoss("malformed fleet body");
    result->skipped_shards.push_back(static_cast<int>(shard));
  }
  uint32_t hits = 0;
  if (!cursor.U32(&hits) || hits > kMaxResultEntries) {
    return Status::DataLoss("malformed fleet body");
  }
  result->hits.clear();
  result->hits.reserve(hits);
  for (uint32_t i = 0; i < hits; ++i) {
    RangeHit hit;
    if (!cursor.I64(&hit.id) || !GetPrediction(&cursor, &hit.prediction)) {
      return Status::DataLoss("malformed fleet hit");
    }
    result->hits.push_back(std::move(hit));
  }
  if (!cursor.done()) return Status::DataLoss("trailing fleet bytes");
  return Status::OK();
}

Status DecodeStatsBody(const std::string& body, std::string* json) {
  wire::Cursor cursor(body);
  if (!cursor.String(json, kMaxResultEntries) || !cursor.done()) {
    return Status::DataLoss("malformed stats body");
  }
  return Status::OK();
}

Status DecodeReplStateBody(const std::string& body, uint64_t* generation,
                           std::vector<WireSegment>* segments) {
  wire::Cursor cursor(body);
  uint32_t count = 0;
  cursor.U64(generation);
  if (!cursor.U32(&count) || count > kMaxListedSegments) {
    return Status::DataLoss("malformed repl-state body");
  }
  segments->clear();
  segments->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireSegment segment;
    uint32_t shard = 0;
    cursor.U32(&shard);
    cursor.U64(&segment.seq);
    cursor.U64(&segment.base_gen);
    if (!cursor.U64(&segment.size)) {
      return Status::DataLoss("malformed repl-state segment");
    }
    segment.shard = static_cast<int>(shard);
    segments->push_back(segment);
  }
  if (!cursor.done()) return Status::DataLoss("trailing repl-state bytes");
  return Status::OK();
}

Status DecodeReplFetchBody(const std::string& body, uint64_t* file_size,
                           bool* eof, std::string* bytes) {
  wire::Cursor cursor(body);
  uint8_t eof_byte = 0;
  cursor.U64(file_size);
  cursor.U8(&eof_byte);
  if (!cursor.String(bytes, kMaxNetPayloadBytes) || !cursor.done()) {
    return Status::DataLoss("malformed repl-fetch body");
  }
  *eof = eof_byte != 0;
  return Status::OK();
}

Status DecodeRequest(const std::string& payload, Request* request) {
  wire::Cursor cursor(payload);
  uint8_t type = 0;
  if (!cursor.U8(&type)) return Status::DataLoss("empty request");
  request->type = static_cast<MsgType>(type);
  switch (request->type) {
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    case MsgType::kReport:
      cursor.I64(&request->report.id);
      cursor.I64(&request->report.t);
      cursor.F64(&request->report.x);
      cursor.F64(&request->report.y);
      break;
    case MsgType::kPredict: {
      uint32_t k = 0;
      cursor.I64(&request->predict.id);
      cursor.I64(&request->predict.tq);
      cursor.U32(&k);
      cursor.U64(&request->predict.deadline_us);
      request->predict.k = static_cast<int32_t>(k);
      break;
    }
    case MsgType::kRange: {
      uint32_t k = 0;
      cursor.F64(&request->range.min_x);
      cursor.F64(&request->range.min_y);
      cursor.F64(&request->range.max_x);
      cursor.F64(&request->range.max_y);
      cursor.I64(&request->range.tq);
      cursor.U32(&k);
      cursor.U64(&request->range.deadline_us);
      request->range.k_per_object = static_cast<int32_t>(k);
      break;
    }
    case MsgType::kKnn: {
      uint32_t n = 0;
      cursor.F64(&request->knn.x);
      cursor.F64(&request->knn.y);
      cursor.I64(&request->knn.tq);
      cursor.U32(&n);
      cursor.U64(&request->knn.deadline_us);
      request->knn.n = static_cast<int32_t>(n);
      break;
    }
    case MsgType::kReplState:
      cursor.U64(&request->repl_state.follower_lag_bytes);
      cursor.U64(&request->repl_state.follower_applied_records);
      break;
    case MsgType::kReplFetch:
      cursor.String(&request->repl_fetch.name, 4096);
      cursor.U64(&request->repl_fetch.offset);
      cursor.U32(&request->repl_fetch.max_bytes);
      break;
    case MsgType::kReply:
      return Status::DataLoss("reply message sent as request");
    default:
      return Status::DataLoss("unknown message type " +
                              std::to_string(type));
  }
  if (!cursor.done()) {
    return Status::DataLoss("malformed request body for type " +
                            std::to_string(type));
  }
  return Status::OK();
}

}  // namespace hpm
