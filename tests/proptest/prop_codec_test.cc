// Property suite: every decoder of a wire message or a journal record
// over hostile bytes. Seeds are valid encodings of every request type,
// a reply envelope, every reply body and every journal record type.
// Mutations flip bits, cut, splice two encodings, set a flag, enum or
// type byte to any value, and set a count or length field to 0, n+1 or
// 2^32-1. On every input the decoder must return a Status (the ASan and
// UBSan legs catch anything else), make no single allocation larger
// than the input's length allows, and, when it accepts the input,
// re-encode what it decoded to the same bytes. Three fixed cases give a
// body of a few bytes a count whose entries would take about 100 MB.

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "io/wal.h"
#include "net/protocol.h"
#include "proptest/proptest.h"

// Allocation probe: records the largest operator-new request made by
// the thread that armed it. Every non-aligned form is replaced so new
// and delete stay paired (malloc/free) under the sanitizers.
namespace {
thread_local bool g_probe_armed = false;
thread_local size_t g_probe_largest = 0;

void* ProbedAlloc(size_t n) {
  if (g_probe_armed) g_probe_largest = std::max(g_probe_largest, n);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// GCC sees a std::vector's operator new and operator delete inlined and
// takes the malloc/free pairing for a new/free mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t n) {
  if (void* p = ProbedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) { return operator new(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return ProbedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

enum class Format {
  kRequest,
  kReply,
  kPredictions,
  kFleet,
  kStats,
  kReplState,
  kReplFetch,
  kWalRecord,
};
constexpr int kNumFormats = 8;

const char* FormatName(Format format) {
  static constexpr const char* kNames[] = {
      "request", "reply",      "predictions", "fleet",
      "stats",   "repl-state", "repl-fetch",  "wal-record"};
  return kNames[static_cast<int>(format)];
}

/// The fewest encoded bytes of one counted item, against the size of
/// what a decoder reserves for it: their largest ratio bounds how far an
/// accepted count can expand the input.
constexpr double kMaxExpansion =
    std::max({static_cast<double>(sizeof(Prediction)) / 51,
              static_cast<double>(sizeof(RangeHit)) / 59,
              static_cast<double>(sizeof(WireSegment)) / 28,
              static_cast<double>(sizeof(int)) / 4, 1.0});

/// Room for a Status message and other fixed-size allocations.
constexpr size_t kAllocSlack = 128;

size_t AllocBound(size_t input_bytes) {
  return kAllocSlack +
         static_cast<size_t>(kMaxExpansion * static_cast<double>(input_bytes));
}

/// A valid encoding, the offsets of its u32 count and length fields,
/// and the offsets of its u8 flags, enums and message types.
struct Encoding {
  Format format = Format::kRequest;
  std::string bytes;
  std::vector<size_t> length_fields;
  std::vector<size_t> byte_fields;
};

/// The source and has-uncertainty bytes of a prediction encoded at `at`.
void AddPredictionBytes(size_t at, std::vector<size_t>* byte_fields) {
  byte_fields->push_back(at + 24);
  byte_fields->push_back(at + 49);
}

double AnyDouble(Random& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return std::numeric_limits<double>::quiet_NaN();
    default:
      return rng.UniformDouble(-1e6, 1e6);
  }
}

int32_t AnyInt(Random& rng) {
  return static_cast<int32_t>(rng.NextUint64());
}

std::string AnyString(Random& rng, size_t max_len) {
  std::string s(rng.Uniform(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

Prediction AnyPrediction(Random& rng) {
  Prediction p;
  p.location = Point(AnyDouble(rng), AnyDouble(rng));
  p.score = AnyDouble(rng);
  p.source = rng.Bernoulli(0.5) ? PredictionSource::kPattern
                                : PredictionSource::kMotionFunction;
  p.pattern_id = AnyInt(rng);
  p.consequence_region = AnyInt(rng);
  p.confidence = AnyDouble(rng);
  if (rng.Bernoulli(0.5)) {
    p.uncertainty = BoundingBox(Point(AnyDouble(rng), AnyDouble(rng)),
                                Point(AnyDouble(rng), AnyDouble(rng)));
  }
  p.degraded = static_cast<DegradedReason>(rng.Uniform(4));
  return p;
}

Encoding AnyRequest(Random& rng) {
  Encoding e;
  switch (rng.Uniform(8)) {
    case 0:
      e.bytes = EncodePing();
      break;
    case 1:
      e.bytes = EncodeStats();
      break;
    case 2:
      e.bytes = EncodeReport(ReportRequest{
          static_cast<ObjectId>(rng.NextUint64()),
          static_cast<int64_t>(rng.NextUint64()), AnyDouble(rng),
          AnyDouble(rng)});
      break;
    case 3: {
      PredictRequest r;
      r.id = static_cast<ObjectId>(rng.NextUint64());
      r.tq = static_cast<Timestamp>(rng.NextUint64());
      r.k = AnyInt(rng);
      r.deadline_us = rng.NextUint64();
      e.bytes = EncodePredict(r);
      break;
    }
    case 4: {
      RangeRequest r;
      r.min_x = AnyDouble(rng);
      r.min_y = AnyDouble(rng);
      r.max_x = AnyDouble(rng);
      r.max_y = AnyDouble(rng);
      r.tq = static_cast<Timestamp>(rng.NextUint64());
      r.k_per_object = AnyInt(rng);
      r.deadline_us = rng.NextUint64();
      e.bytes = EncodeRange(r);
      break;
    }
    case 5: {
      KnnRequest r;
      r.x = AnyDouble(rng);
      r.y = AnyDouble(rng);
      r.tq = static_cast<Timestamp>(rng.NextUint64());
      r.n = AnyInt(rng);
      r.deadline_us = rng.NextUint64();
      e.bytes = EncodeKnn(r);
      break;
    }
    case 6:
      e.bytes = EncodeReplState(
          ReplStateRequest{rng.NextUint64(), rng.NextUint64()});
      break;
    default: {
      ReplFetchRequest r;
      r.name = AnyString(rng, 40);
      r.offset = rng.NextUint64();
      r.max_bytes = static_cast<uint32_t>(rng.NextUint64());
      e.bytes = EncodeReplFetch(r);
      e.length_fields = {1};
      break;
    }
  }
  e.byte_fields = {0};
  return e;
}

Encoding AnyEncoding(Random& rng) {
  Encoding e;
  e.format = static_cast<Format>(rng.Uniform(kNumFormats));
  switch (e.format) {
    case Format::kRequest: {
      e = AnyRequest(rng);
      e.format = Format::kRequest;
      break;
    }
    case Format::kReply: {
      ReplyInfo info;
      info.role = rng.Bernoulli(0.5) ? ServerRole::kPrimary
                                     : ServerRole::kReplica;
      info.generation = rng.NextUint64();
      info.staleness_us = rng.NextUint64();
      info.stale_degraded = rng.Bernoulli(0.5);
      const auto code = static_cast<StatusCode>(
          rng.Uniform(static_cast<uint64_t>(StatusCode::kDataLoss) + 1));
      const Status status = code == StatusCode::kOk
                                ? Status::OK()
                                : Status(code, AnyString(rng, 40));
      e.bytes = EncodeReply(status, info, AnyString(rng, 64));
      e.length_fields = {2};
      const size_t message = status.message().size();
      e.byte_fields = {1, 6 + message, 6 + message + 17};
      break;
    }
    case Format::kPredictions: {
      std::vector<Prediction> predictions(rng.Uniform(5));
      for (Prediction& p : predictions) p = AnyPrediction(rng);
      e.bytes = EncodePredictionsBody(predictions);
      e.length_fields = {0};
      if (!predictions.empty()) AddPredictionBytes(4, &e.byte_fields);
      break;
    }
    case Format::kFleet: {
      FleetQueryResult result;
      result.partial = rng.Bernoulli(0.5);
      result.skipped_shards.resize(rng.Uniform(4));
      for (int& shard : result.skipped_shards) shard = AnyInt(rng);
      result.hits.resize(rng.Uniform(4));
      for (RangeHit& hit : result.hits) {
        hit.id = static_cast<ObjectId>(rng.NextUint64());
        hit.prediction = AnyPrediction(rng);
      }
      e.bytes = EncodeFleetBody(result);
      const size_t hits_at = 1 + 4 + 4 * result.skipped_shards.size();
      e.length_fields = {1, hits_at};
      e.byte_fields = {0};
      if (!result.hits.empty()) {
        AddPredictionBytes(hits_at + 4 + 8, &e.byte_fields);
      }
      break;
    }
    case Format::kStats:
      e.bytes = EncodeStatsBody(AnyString(rng, 64));
      e.length_fields = {0};
      break;
    case Format::kReplState: {
      std::vector<WireSegment> segments(rng.Uniform(4));
      for (WireSegment& s : segments) {
        s = WireSegment{AnyInt(rng), rng.NextUint64(), rng.NextUint64(),
                        rng.NextUint64()};
      }
      e.bytes = EncodeReplStateBody(rng.NextUint64(), segments);
      e.length_fields = {8};
      break;
    }
    case Format::kReplFetch:
      e.bytes = EncodeReplFetchBody(rng.NextUint64(), rng.Bernoulli(0.5),
                                    AnyString(rng, 64));
      e.length_fields = {9};
      e.byte_fields = {8};
      break;
    case Format::kWalRecord: {
      WalRecord record;
      record.type = static_cast<WalRecord::Type>(1 + rng.Uniform(3));
      record.id = static_cast<int64_t>(rng.NextUint64());
      if (record.type != WalRecord::Type::kRejected) {
        record.t = static_cast<int64_t>(rng.NextUint64());
      }
      if (record.type == WalRecord::Type::kReport) {
        record.x = AnyDouble(rng);
        record.y = AnyDouble(rng);
      }
      // The payload is the frame less its length and checksum.
      e.bytes = EncodeWalFrame(record).substr(8);
      e.byte_fields = {0};
      break;
    }
  }
  return e;
}

/// What a decoder made of some bytes: its Status and, when OK, the
/// re-encoding of what it decoded.
struct Decoded {
  Status status;
  std::string reencoded;
};

std::string ReEncodeRequest(const Request& r) {
  switch (r.type) {
    case MsgType::kPing:
      return EncodePing();
    case MsgType::kReport:
      return EncodeReport(r.report);
    case MsgType::kPredict:
      return EncodePredict(r.predict);
    case MsgType::kRange:
      return EncodeRange(r.range);
    case MsgType::kKnn:
      return EncodeKnn(r.knn);
    case MsgType::kStats:
      return EncodeStats();
    case MsgType::kReplState:
      return EncodeReplState(r.repl_state);
    case MsgType::kReplFetch:
      return EncodeReplFetch(r.repl_fetch);
    case MsgType::kReply:
      break;
  }
  return "accepted a reply as a request";
}

/// Decodes `bytes` as `format` with the allocation probe armed, then
/// re-encodes an accepted value with the probe off.
Decoded Decode(Format format, const std::string& bytes,
               size_t* largest_alloc) {
  Decoded out;
  Request request;
  ReplyInfo info;
  Status transported;
  std::string body;
  std::vector<Prediction> predictions;
  FleetQueryResult fleet;
  std::string text;
  uint64_t number = 0;
  bool flag = false;
  std::vector<WireSegment> segments;
  WalRecord record;

  g_probe_largest = 0;
  g_probe_armed = true;
  switch (format) {
    case Format::kRequest:
      out.status = DecodeRequest(bytes, &request);
      break;
    case Format::kReply:
      out.status = DecodeReply(bytes, &info, &body, &transported);
      break;
    case Format::kPredictions:
      out.status = DecodePredictionsBody(bytes, &predictions);
      break;
    case Format::kFleet:
      out.status = DecodeFleetBody(bytes, &fleet);
      break;
    case Format::kStats:
      out.status = DecodeStatsBody(bytes, &text);
      break;
    case Format::kReplState:
      out.status = DecodeReplStateBody(bytes, &number, &segments);
      break;
    case Format::kReplFetch:
      out.status = DecodeReplFetchBody(bytes, &number, &flag, &text);
      break;
    case Format::kWalRecord:
      out.status = DecodeWalRecord(bytes, &record);
      break;
  }
  g_probe_armed = false;
  *largest_alloc = g_probe_largest;
  if (!out.status.ok()) return out;

  switch (format) {
    case Format::kRequest:
      out.reencoded = ReEncodeRequest(request);
      break;
    case Format::kReply:
      out.reencoded = EncodeReply(transported, info, body);
      break;
    case Format::kPredictions:
      out.reencoded = EncodePredictionsBody(predictions);
      break;
    case Format::kFleet:
      out.reencoded = EncodeFleetBody(fleet);
      break;
    case Format::kStats:
      out.reencoded = EncodeStatsBody(text);
      break;
    case Format::kReplState:
      out.reencoded = EncodeReplStateBody(number, segments);
      break;
    case Format::kReplFetch:
      out.reencoded = EncodeReplFetchBody(number, flag, text);
      break;
    case Format::kWalRecord:
      out.reencoded = EncodeWalFrame(record).substr(8);
      break;
  }
  return out;
}

void SetU32(std::string* bytes, size_t offset, uint32_t v) {
  std::string field;
  bytes::PutU32(&field, v);
  bytes->replace(offset, field.size(), field);
}

uint32_t GetU32(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  bytes::Cursor(bytes.data() + offset, sizeof(v)).U32(&v);
  return v;
}

struct CodecCase {
  Encoding seed;
  std::string input;
  std::vector<std::string> mutations;  ///< What was done to the seed.
};

CodecCase GenCodecCase(Random& rng) {
  CodecCase c;
  c.seed = AnyEncoding(rng);
  c.input = c.seed.bytes;
  const size_t rounds = rng.Uniform(4);  // 0: the valid seed itself
  for (size_t i = 0; i < rounds; ++i) {
    std::string& in = c.input;
    switch (rng.Uniform(5)) {
      case 0:
        if (in.empty()) break;
        {
          const size_t bit = rng.Uniform(in.size() * 8);
          in[bit / 8] = static_cast<char>(in[bit / 8] ^ (1 << (bit % 8)));
          c.mutations.push_back("flip bit " + std::to_string(bit));
        }
        break;
      case 1: {
        const size_t keep = rng.Uniform(in.size() + 1);
        in.resize(keep);
        c.mutations.push_back("cut to " + std::to_string(keep));
        break;
      }
      case 2: {
        const std::string other = AnyEncoding(rng).bytes;
        const size_t head = rng.Uniform(in.size() + 1);
        const size_t tail = rng.Uniform(other.size() + 1);
        in = in.substr(0, head) + other.substr(tail);
        c.mutations.push_back("splice " + std::to_string(head) + " + " +
                              std::to_string(other.size() - tail));
        break;
      }
      case 3: {
        if (c.seed.byte_fields.empty()) break;
        const size_t at =
            c.seed.byte_fields[rng.Uniform(c.seed.byte_fields.size())];
        if (at >= in.size()) break;
        // Mostly the small values where the valid ones end.
        const auto value = static_cast<uint8_t>(
            rng.Bernoulli(0.5) ? rng.Uniform(4) : rng.Uniform(256));
        in[at] = static_cast<char>(value);
        c.mutations.push_back("byte @" + std::to_string(at) + " = " +
                              std::to_string(value));
        break;
      }
      default: {
        if (c.seed.length_fields.empty()) break;
        const size_t at = c.seed.length_fields[rng.Uniform(
            c.seed.length_fields.size())];
        if (at + 4 > in.size()) break;
        const uint32_t now = GetU32(in, at);
        const uint32_t lie = rng.Uniform(3) == 0   ? 0
                             : rng.Uniform(2) == 0 ? now + 1
                                                   : UINT32_MAX;
        SetU32(&in, at, lie);
        c.mutations.push_back("field @" + std::to_string(at) + " = " +
                              std::to_string(lie));
        break;
      }
    }
  }
  return c;
}

std::string CheckCodecCase(const CodecCase& c) {
  size_t largest = 0;
  const Decoded seed = Decode(c.seed.format, c.seed.bytes, &largest);
  if (!seed.status.ok() || seed.reencoded != c.seed.bytes) {
    return std::string("the valid seed did not round-trip: ") +
           seed.status.ToString();
  }
  const Decoded got = Decode(c.seed.format, c.input, &largest);
  if (largest > AllocBound(c.input.size())) {
    return "allocated " + std::to_string(largest) + " bytes for " +
           std::to_string(c.input.size()) + " input bytes";
  }
  if (got.status.ok() && got.reencoded != c.input) {
    return "accepted input re-encodes to other bytes";
  }
  if (!got.status.ok() && got.status.code() != StatusCode::kDataLoss) {
    return "refused with " + got.status.ToString() + ", not DataLoss";
  }
  return "";
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char ch : bytes) {
    const auto b = static_cast<unsigned char>(ch);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(PropCodec, HostileBytesAreRefusedWithinBudgetOrReEncodeExactly) {
  Property<CodecCase> property("codec-hostile-bytes", GenCodecCase,
                               CheckCodecCase);
  property.WithPrinter([](const CodecCase& c) {
    std::string out = std::string(FormatName(c.seed.format)) + " seed " +
                      Hex(c.seed.bytes) + ", mutated by";
    for (const std::string& m : c.mutations) out += " [" + m + "]";
    return out + " into " + Hex(c.input);
  });
  RunnerOptions options;
  options.num_cases = 10000;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

/// Decodes a body whose count lies and returns the largest allocation.
size_t LargestAllocFor(Format format, const std::string& body) {
  size_t largest = 0;
  const Decoded got = Decode(format, body, &largest);
  EXPECT_EQ(got.status.code(), StatusCode::kDataLoss);
  return largest;
}

TEST(PropCodec, PredictionsCountIsRefusedBeforeAllocating) {
  std::string body;
  bytes::PutU32(&body, 1u << 20);
  EXPECT_LE(LargestAllocFor(Format::kPredictions, body), kAllocSlack);
}

TEST(PropCodec, FleetHitCountIsRefusedBeforeAllocating) {
  std::string body;
  bytes::PutU8(&body, 0);
  bytes::PutU32(&body, 0);  // no skipped shards
  bytes::PutU32(&body, 1u << 20);
  EXPECT_LE(LargestAllocFor(Format::kFleet, body), kAllocSlack);
}

TEST(PropCodec, ReplStateSegmentCountIsRefusedBeforeAllocating) {
  std::string body;
  bytes::PutU64(&body, 1);
  bytes::PutU32(&body, 1u << 16);
  EXPECT_LE(LargestAllocFor(Format::kReplState, body), kAllocSlack);
}

}  // namespace
}  // namespace hpm
