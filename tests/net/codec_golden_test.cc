// Golden bytes for the wire protocol and the journal: one fixed value of
// each request type, reply envelope, reply body and journal frame, with
// its encoding committed as hex. The model file has its own fixture
// (tests/core/testdata/model_v3.hpm). A change to any encoder that moves
// a byte fails here; a format change that means to move bytes updates
// the constants and says so.
//
// Each case also decodes the golden bytes and re-encodes the result, so
// the decoders read exactly what the encoders write.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/atomic_file.h"
#include "io/wal.h"
#include "net/protocol.h"

namespace hpm {
namespace {

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Decodes a request and encodes it again with the encoder of its type.
std::string ReEncodeRequest(const std::string& payload) {
  Request r;
  const Status decoded = DecodeRequest(payload, &r);
  EXPECT_TRUE(decoded.ok()) << decoded.ToString();
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
  return "";
}

void ExpectRequest(const std::string& encoded, const char* golden) {
  EXPECT_EQ(Hex(encoded), golden);
  EXPECT_EQ(Hex(ReEncodeRequest(Unhex(golden))), golden);
}

Prediction PatternPrediction() {
  Prediction p;
  p.location = Point(120.5, -33.25);
  p.score = 0.8125;
  p.source = PredictionSource::kPattern;
  p.pattern_id = 17;
  p.consequence_region = 4;
  p.confidence = 0.625;
  p.uncertainty = BoundingBox(Point(100.0, -40.0), Point(141.0, -26.5));
  return p;
}

Prediction MotionPrediction() {
  Prediction p;
  p.location = Point(-7.0, 3.5);
  p.source = PredictionSource::kMotionFunction;
  p.degraded = DegradedReason::kDeadlineExceeded;
  return p;
}

TEST(CodecGoldenTest, Requests) {
  ExpectRequest(EncodePing(), "01");
  ExpectRequest(EncodeStats(), "06");
  ExpectRequest(EncodeReport(ReportRequest{7, 3, 1.5, -2.5}),
                "020700000000000000030000000000000000000000"
                "0000f83f00000000000004c0");
  PredictRequest predict;
  predict.id = 9;
  predict.tq = 100;
  predict.k = -1;  // a bit-cast u32 on the wire
  predict.deadline_us = 5000;
  ExpectRequest(EncodePredict(predict),
                "0309000000000000006400000000000000ffffffff"
                "8813000000000000");
  RangeRequest range;
  range.min_x = -1.0;
  range.min_y = 2.0;
  range.max_x = 30.25;
  range.max_y = 40.0;
  range.tq = 12345;
  range.k_per_object = 2;
  range.deadline_us = 777;
  ExpectRequest(EncodeRange(range),
                "04000000000000f0bf00000000000000400000000000403e40"
                "00000000000044403930000000000000020000000903000000"
                "000000");
  KnnRequest knn;
  knn.x = 5.5;
  knn.y = -6.0;
  knn.tq = 99;
  knn.n = 4;
  ExpectRequest(EncodeKnn(knn),
                "05000000000000164000000000000018c06300000000000000"
                "040000000000000000000000");
  ExpectRequest(EncodeReplState(ReplStateRequest{4096, 17}),
                "1000100000000000001100000000000000");
  ReplFetchRequest fetch;
  fetch.name = "wal/wal-0-1.log";
  fetch.offset = 4096;
  fetch.max_bytes = 1024;
  ExpectRequest(EncodeReplFetch(fetch),
                "110f00000077616c2f77616c2d302d312e6c6f6700100000000000"
                "0000040000");
}

TEST(CodecGoldenTest, ReplyEnvelopeWithAnErrorStatus) {
  ReplyInfo info;
  info.role = ServerRole::kReplica;
  info.generation = 12;
  info.staleness_us = 3456;
  info.stale_degraded = true;
  const Status busy = Status::Unavailable("server busy [retry-after-us=1500]");
  const char* golden =
      "8008210000007365727665722062757379205b72657472792d616674"
      "65722d75733d313530305d010c00000000000000800d000000000000"
      "01";
  EXPECT_EQ(Hex(EncodeReply(busy, info, "")), golden);

  ReplyInfo decoded;
  std::string body;
  Status transported;
  ASSERT_TRUE(DecodeReply(Unhex(golden), &decoded, &body, &transported).ok());
  EXPECT_EQ(Hex(EncodeReply(transported, decoded, body)), golden);
}

TEST(CodecGoldenTest, PredictionsBodyWithAndWithoutAnUncertaintyBox) {
  const char* golden =
      "020000000000000000205e400000000000a040c0000000000000ea3f"
      "0011000000000000000400000000000000000000000000e43f010000"
      "00000000594000000000000044c00000000000a06140000000000080"
      "3ac0000000000000001cc00000000000000c40000000000000000001"
      "ffffffffffffffffffffffffffffffff00000000000000000001";
  EXPECT_EQ(Hex(EncodePredictionsBody({PatternPrediction(),
                                       MotionPrediction()})),
            golden);
  std::vector<Prediction> decoded;
  ASSERT_TRUE(DecodePredictionsBody(Unhex(golden), &decoded).ok());
  EXPECT_EQ(Hex(EncodePredictionsBody(decoded)), golden);
}

TEST(CodecGoldenTest, FleetBodyWithSkippedShards) {
  FleetQueryResult result;
  result.partial = true;
  result.skipped_shards = {1, 3};
  result.hits = {RangeHit{42, PatternPrediction()},
                 RangeHit{-7, MotionPrediction()}};
  const char* golden =
      "01020000000100000003000000020000002a00000000000000000000"
      "0000205e400000000000a040c0000000000000ea3f00110000000000"
      "00000400000000000000000000000000e43f01000000000000594000"
      "000000000044c00000000000a061400000000000803ac000f9ffffff"
      "ffffffff0000000000001cc00000000000000c400000000000000000"
      "01ffffffffffffffffffffffffffffffff00000000000000000001";
  EXPECT_EQ(Hex(EncodeFleetBody(result)), golden);
  FleetQueryResult decoded;
  ASSERT_TRUE(DecodeFleetBody(Unhex(golden), &decoded).ok());
  EXPECT_EQ(Hex(EncodeFleetBody(decoded)), golden);
}

TEST(CodecGoldenTest, StatsBody) {
  const char* golden = "0c0000007b22736861726473223a347d";
  EXPECT_EQ(Hex(EncodeStatsBody("{\"shards\":4}")), golden);
  std::string json;
  ASSERT_TRUE(DecodeStatsBody(Unhex(golden), &json).ok());
  EXPECT_EQ(Hex(EncodeStatsBody(json)), golden);
}

TEST(CodecGoldenTest, ReplStateBody) {
  const char* golden =
      "09000000000000000200000000000000010000000000000002000000"
      "00000000001000000000000003000000070000000000000002000000"
      "000000008000000000000000";
  EXPECT_EQ(
      Hex(EncodeReplStateBody(9, {{0, 1, 2, 4096}, {3, 7, 2, 128}})),
      golden);
  uint64_t generation = 0;
  std::vector<WireSegment> segments;
  ASSERT_TRUE(
      DecodeReplStateBody(Unhex(golden), &generation, &segments).ok());
  EXPECT_EQ(Hex(EncodeReplStateBody(generation, segments)), golden);
}

TEST(CodecGoldenTest, ReplFetchBody) {
  const char* golden = "00200000000000000104000000616200ff";
  EXPECT_EQ(Hex(EncodeReplFetchBody(8192, true, std::string("ab\0\xff", 4))),
            golden);
  uint64_t file_size = 0;
  bool eof = false;
  std::string bytes;
  ASSERT_TRUE(
      DecodeReplFetchBody(Unhex(golden), &file_size, &eof, &bytes).ok());
  EXPECT_EQ(Hex(EncodeReplFetchBody(file_size, eof, bytes)), golden);
}

TEST(CodecGoldenTest, JournalHeaderAndOneRecordOfEachType) {
  WalRecord report;
  report.type = WalRecord::Type::kReport;
  report.id = 7;
  report.t = 3;
  report.x = 1.5;
  report.y = -2.5;
  WalRecord rejected;
  rejected.type = WalRecord::Type::kRejected;
  rejected.id = 8;
  WalRecord baseline;
  baseline.type = WalRecord::Type::kRejectedBaseline;
  baseline.id = 9;
  baseline.t = 4;
  const std::vector<WalRecord> records = {report, rejected, baseline};

  const char* header =
      "1c000000c496e9c748504d57414c3100020000000500000000000000"
      "0300000000000000";
  const std::vector<const char*> golden = {
      "2100000019d51ea10107000000000000000300000000000000000000"
      "000000f83f00000000000004c0",
      "090000009d271a1b020800000000000000",
      "110000001daa44c30309000000000000000400000000000000"};
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(Hex(EncodeWalFrame(records[i])), golden[i]) << "record " << i;
  }

  // The header frame is only ever written by a writer opening a segment:
  // open one, append the records, and read the file back.
  const std::string dir =
      std::string(::testing::TempDir()) + "/codec_golden_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StatusOr<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, 2, 5, 3, WalWriterOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const WalRecord& record : records) {
    ASSERT_TRUE((*writer)->Append(record, nullptr).ok());
  }
  const std::string path = (*writer)->segment_path();
  writer->reset();
  StatusOr<std::string> file = ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  std::string want = header;
  for (const char* frame : golden) want += frame;
  EXPECT_EQ(Hex(*file), want);

  StatusOr<WalSegmentContents> read = ReadWalSegment(path, false);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->header_ok);
  EXPECT_EQ(read->shard, 2);
  EXPECT_EQ(read->seq, 5u);
  EXPECT_EQ(read->base_gen, 3u);
  ASSERT_EQ(read->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(Hex(EncodeWalFrame(read->records[i])), golden[i])
        << "record " << i;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hpm
