// The HPM wire protocol: request/reply message types and their binary
// encodings (docs/ARCHITECTURE.md §11 has the frame diagram).
//
// Transport: each message is one CRC frame (net/frame.h). The first
// payload byte is the message type; the rest is the type-specific body
// encoded with common/bytes.h.
//
// Every reply shares an envelope:
//   u8 kReply | u8 status_code | string status_message |
//   u8 role | u64 generation | u64 staleness_us | u8 stale_degraded |
//   <op-specific body>
//
// The status message is transported verbatim, so server-side
// retry-after hints (AttachRetryAfter in common/retry.h) survive the
// wire and the client's RetryWithBackoff honours them unchanged.
// `generation` is the store's snapshot generation and `staleness_us`
// how far behind the primary a replica's answer may be (0 on the
// primary — read-your-writes). `stale_degraded` is set once a replica
// has not completed a sync within its staleness threshold.

#ifndef HPM_NET_PROTOCOL_H_
#define HPM_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "server/store_types.h"

namespace hpm {

enum class MsgType : uint8_t {
  kPing = 1,
  kReport = 2,
  kPredict = 3,
  kRange = 4,
  kKnn = 5,
  kStats = 6,
  // Replication RPCs (served by the primary only).
  kReplState = 16,
  kReplFetch = 17,
  kReply = 128,
};

enum class ServerRole : uint8_t { kPrimary = 0, kReplica = 1 };

const char* ServerRoleName(ServerRole role);

/// ---- Requests ------------------------------------------------------------

struct ReportRequest {
  ObjectId id = 0;
  /// Explicit object-clock tick; -1 = append at the object's next tick.
  int64_t t = -1;
  double x = 0.0;
  double y = 0.0;
};

struct PredictRequest {
  ObjectId id = 0;
  Timestamp tq = 0;
  int32_t k = 1;
  /// Server-side deadline budget; 0 = none.
  uint64_t deadline_us = 0;
};

struct RangeRequest {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  Timestamp tq = 0;
  int32_t k_per_object = 3;
  uint64_t deadline_us = 0;
};

struct KnnRequest {
  double x = 0.0, y = 0.0;
  Timestamp tq = 0;
  int32_t n = 1;
  uint64_t deadline_us = 0;
};

/// Follower heartbeat + segment listing request. The follower reports
/// its own lag so the primary can flip repl.follower_lagging without
/// ever blocking ingest on a slow replica.
struct ReplStateRequest {
  uint64_t follower_lag_bytes = 0;
  uint64_t follower_applied_records = 0;
};

/// Byte-range fetch of one store file (snapshot object file, manifest,
/// CURRENT, or a WAL segment). Names are validated server-side against
/// the store layout (server/store_layout.h) — nothing else is fetchable.
struct ReplFetchRequest {
  std::string name;
  uint64_t offset = 0;
  uint32_t max_bytes = 0;
};

/// Bytes per kReplFetch: what a replica asks for, the most a server sends.
constexpr uint32_t kReplFetchChunkBytes = 256 * 1024;

std::string EncodePing();
std::string EncodeReport(const ReportRequest& req);
std::string EncodePredict(const PredictRequest& req);
std::string EncodeRange(const RangeRequest& req);
std::string EncodeKnn(const KnnRequest& req);
std::string EncodeStats();
std::string EncodeReplState(const ReplStateRequest& req);
std::string EncodeReplFetch(const ReplFetchRequest& req);

/// ---- Replies -------------------------------------------------------------

/// The envelope every reply carries.
struct ReplyInfo {
  ServerRole role = ServerRole::kPrimary;
  uint64_t generation = 0;
  uint64_t staleness_us = 0;
  bool stale_degraded = false;
};

struct PredictReply {
  ReplyInfo info;
  std::vector<Prediction> predictions;
};

struct FleetReply {
  ReplyInfo info;
  FleetQueryResult result;
};

struct StatsReply {
  ReplyInfo info;
  std::string json;
};

/// One journal segment as listed by the primary.
struct WireSegment {
  int shard = 0;
  uint64_t seq = 0;
  uint64_t base_gen = 0;
  uint64_t size = 0;
};

struct ReplStateReply {
  ReplyInfo info;
  uint64_t generation = 0;
  std::vector<WireSegment> segments;
};

struct ReplFetchReply {
  ReplyInfo info;
  uint64_t file_size = 0;
  bool eof = false;
  std::string bytes;
};

/// Builds the reply payload for `status` + an op-specific `body`
/// (already encoded; empty for error replies and bodyless ops).
std::string EncodeReply(const Status& status, const ReplyInfo& info,
                        const std::string& body);

/// Body encoders (appended to EncodeReply's envelope by the server).
std::string EncodePredictionsBody(const std::vector<Prediction>& predictions);
std::string EncodeFleetBody(const FleetQueryResult& result);
std::string EncodeStatsBody(const std::string& json);
std::string EncodeReplStateBody(uint64_t generation,
                                const std::vector<WireSegment>& segments);
std::string EncodeReplFetchBody(uint64_t file_size, bool eof,
                                const std::string& bytes);

/// Splits a reply payload into the envelope, the op-specific body bytes
/// and the *transported* status (the Status the server put in the
/// envelope — retry-after hints intact). The return value is the frame's
/// own validity: kDataLoss when the payload is malformed (a transport
/// problem, distinct from a well-formed error reply); an OK status with
/// a message is malformed. The body is the rest of the payload.
Status DecodeReply(const std::string& payload, ReplyInfo* info,
                   std::string* body, Status* transported);

/// Body decoders (kDataLoss on malformed bodies). A body they accept
/// re-encodes to the same bytes: flags are 0 or 1, i64 ids fit an int,
/// and an uncertainty box is kept as sent. A count whose entries cannot
/// fit in the body is refused before anything is reserved for it.
Status DecodePredictionsBody(const std::string& body,
                             std::vector<Prediction>* predictions);
Status DecodeFleetBody(const std::string& body, FleetQueryResult* result);
Status DecodeStatsBody(const std::string& body, std::string* json);
Status DecodeReplStateBody(const std::string& body, uint64_t* generation,
                           std::vector<WireSegment>* segments);
Status DecodeReplFetchBody(const std::string& body, uint64_t* file_size,
                           bool* eof, std::string* bytes);

/// ---- Server-side request decoding ---------------------------------------

/// A decoded request, one member filled per `type`.
struct Request {
  MsgType type = MsgType::kPing;
  ReportRequest report;
  PredictRequest predict;
  RangeRequest range;
  KnnRequest knn;
  ReplStateRequest repl_state;
  ReplFetchRequest repl_fetch;
};

/// Decodes a request payload (kDataLoss on malformed input, including
/// unknown message types).
Status DecodeRequest(const std::string& payload, Request* request);

}  // namespace hpm

#endif  // HPM_NET_PROTOCOL_H_
