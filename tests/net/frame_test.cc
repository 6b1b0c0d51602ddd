// CRC framing over real sockets, and protocol encode/decode round
// trips.

#include <sys/socket.h>

#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "gtest/gtest.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace hpm {
namespace {

/// A connected local socket pair for exercising the framing without a
/// listener.
struct SocketPair {
  Socket a, b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

TEST(FrameTest, RoundTripsOverASocket) {
  SocketPair pair;
  const std::string payload = "the payload \x00\x01\x02 with binary";
  std::thread sender([&] {
    EXPECT_TRUE(
        SendFrame(pair.a, payload, Deadline::AfterMillis(2000)).ok());
  });
  StatusOr<std::string> got = RecvFrame(pair.b, Deadline::AfterMillis(2000));
  sender.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, payload);
}

TEST(FrameTest, CleanCloseBeforeFrameIsUnavailableWithEof) {
  SocketPair pair;
  pair.a.Close();
  bool clean_eof = false;
  StatusOr<std::string> got =
      RecvFrame(pair.b, Deadline::AfterMillis(2000), &clean_eof);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(clean_eof);
}

TEST(FrameTest, TornFrameIsDataLoss) {
  SocketPair pair;
  // Send the header of a 100-byte frame but only 3 payload bytes, then
  // close: the receiver sees a mid-frame disconnect.
  std::string frame;
  const std::string payload(100, 'x');
  ASSERT_TRUE(
      SendFrame(pair.a, payload, Deadline::AfterMillis(2000)).ok());
  // Peek the full frame bytes back out and replay a truncated prefix.
  SocketPair torn;
  std::string full;
  full.resize(8 + payload.size());
  bool clean_eof = false;
  ASSERT_TRUE(pair.b
                  .RecvAll(full.data(), full.size(),
                           Deadline::AfterMillis(2000), &clean_eof)
                  .ok());
  ASSERT_TRUE(torn.a
                  .SendAll(full.data(), 8 + 3, Deadline::AfterMillis(2000))
                  .ok());
  torn.a.Close();
  StatusOr<std::string> got =
      RecvFrame(torn.b, Deadline::AfterMillis(2000), &clean_eof);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(clean_eof);
}

TEST(FrameTest, CorruptedPayloadFailsTheCrc) {
  SocketPair pair;
  const std::string payload = "payload-to-corrupt";
  ASSERT_TRUE(
      SendFrame(pair.a, payload, Deadline::AfterMillis(2000)).ok());
  std::string full;
  full.resize(8 + payload.size());
  bool clean_eof = false;
  ASSERT_TRUE(pair.b
                  .RecvAll(full.data(), full.size(),
                           Deadline::AfterMillis(2000), &clean_eof)
                  .ok());
  full[8] ^= 0x40;  // flip a payload bit; header stays plausible
  SocketPair corrupted;
  ASSERT_TRUE(corrupted.a
                  .SendAll(full.data(), full.size(),
                           Deadline::AfterMillis(2000))
                  .ok());
  StatusOr<std::string> got =
      RecvFrame(corrupted.b, Deadline::AfterMillis(2000));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, ImplausibleLengthIsRejectedWithoutAllocating) {
  SocketPair pair;
  std::string header;
  bytes::PutU32(&header, 0x7FFFFFFF);  // 2 GiB "payload"
  bytes::PutU32(&header, 0);
  ASSERT_TRUE(pair.a
                  .SendAll(header.data(), header.size(),
                           Deadline::AfterMillis(2000))
                  .ok());
  StatusOr<std::string> got = RecvFrame(pair.b, Deadline::AfterMillis(2000));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(FrameTest, PipelinedFrameIsServedFromTheBuffer) {
  SocketPair pair;
  std::string both;
  for (const std::string payload : {"first", "second"}) {
    bytes::PutU32(&both, static_cast<uint32_t>(payload.size()));
    bytes::PutU32(&both, Crc32(payload));
    both += payload;
  }
  ASSERT_TRUE(
      pair.a.SendAll(both.data(), both.size(), Deadline::AfterMillis(2000))
          .ok());
  StatusOr<std::string> first = RecvFrame(pair.b, Deadline::AfterMillis(2000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "first");

  // The second frame came off the kernel queue with the first, so only
  // the buffer can tell WaitReadable that a request is waiting.
  char probe = 0;
  errno = 0;
  EXPECT_EQ(::recv(pair.b.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT), -1);
  EXPECT_EQ(errno, EAGAIN);
  EXPECT_TRUE(pair.b.WaitReadable(Deadline::AfterMillis(1)).ok());

  const std::string rest = both.substr(8 + 5);
  std::string got(rest.size(), '\0');
  ASSERT_TRUE(pair.b
                  .RecvAll(got.data(), got.size(), Deadline::AfterMillis(2000),
                           nullptr)
                  .ok());
  EXPECT_EQ(got, rest);
}

TEST(ProtocolTest, RequestsRoundTrip) {
  ReportRequest report{7, 3, 1.5, -2.5};
  Request decoded;
  ASSERT_TRUE(DecodeRequest(EncodeReport(report), &decoded).ok());
  ASSERT_EQ(decoded.type, MsgType::kReport);
  EXPECT_EQ(decoded.report.id, 7);
  EXPECT_EQ(decoded.report.t, 3);
  EXPECT_EQ(decoded.report.x, 1.5);
  EXPECT_EQ(decoded.report.y, -2.5);

  PredictRequest predict;
  predict.id = 9;
  predict.tq = 100;
  predict.k = 3;
  predict.deadline_us = 5000;
  ASSERT_TRUE(DecodeRequest(EncodePredict(predict), &decoded).ok());
  ASSERT_EQ(decoded.type, MsgType::kPredict);
  EXPECT_EQ(decoded.predict.id, 9);
  EXPECT_EQ(decoded.predict.tq, 100);
  EXPECT_EQ(decoded.predict.k, 3);
  EXPECT_EQ(decoded.predict.deadline_us, 5000u);

  ReplFetchRequest fetch;
  fetch.name = "wal/wal-0-1.log";
  fetch.offset = 4096;
  fetch.max_bytes = 1024;
  ASSERT_TRUE(DecodeRequest(EncodeReplFetch(fetch), &decoded).ok());
  ASSERT_EQ(decoded.type, MsgType::kReplFetch);
  EXPECT_EQ(decoded.repl_fetch.name, fetch.name);
  EXPECT_EQ(decoded.repl_fetch.offset, 4096u);
  EXPECT_EQ(decoded.repl_fetch.max_bytes, 1024u);
}

TEST(ProtocolTest, MalformedRequestIsDataLoss) {
  Request decoded;
  EXPECT_EQ(DecodeRequest("", &decoded).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeRequest("\x63", &decoded).code(), StatusCode::kDataLoss);
  std::string truncated = EncodePredict(PredictRequest{});
  truncated.pop_back();
  EXPECT_EQ(DecodeRequest(truncated, &decoded).code(),
            StatusCode::kDataLoss);
  std::string padded = EncodePing();
  padded.push_back('x');  // trailing garbage must not decode
  EXPECT_EQ(DecodeRequest(padded, &decoded).code(), StatusCode::kDataLoss);
}

TEST(ProtocolTest, ReplyEnvelopeTransportsStatusVerbatim) {
  ReplyInfo info;
  info.role = ServerRole::kReplica;
  info.generation = 12;
  info.staleness_us = 3456;
  info.stale_degraded = true;
  const Status busy =
      Status::Unavailable("server busy [retry-after-us=1500]");
  const std::string payload = EncodeReply(busy, info, "");

  ReplyInfo decoded_info;
  std::string body;
  Status transported;
  ASSERT_TRUE(
      DecodeReply(payload, &decoded_info, &body, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kUnavailable);
  EXPECT_EQ(transported.message(), busy.message());
  EXPECT_EQ(decoded_info.role, ServerRole::kReplica);
  EXPECT_EQ(decoded_info.generation, 12u);
  EXPECT_EQ(decoded_info.staleness_us, 3456u);
  EXPECT_TRUE(decoded_info.stale_degraded);
  EXPECT_TRUE(body.empty());
}

TEST(ProtocolTest, PredictionBodyRoundTripsAllFields) {
  std::vector<Prediction> predictions(2);
  predictions[0].location = Point(1.0, 2.0);
  predictions[0].score = 0.75;
  predictions[0].source = PredictionSource::kPattern;
  predictions[0].pattern_id = 5;
  predictions[0].consequence_region = 2;
  predictions[0].confidence = 0.5;
  predictions[0].uncertainty = BoundingBox(Point(0.0, 0.0), Point(3.0, 3.0));
  predictions[1].location = Point(-4.0, 5.0);
  predictions[1].source = PredictionSource::kMotionFunction;
  predictions[1].degraded = DegradedReason::kPatternUnavailable;

  std::vector<Prediction> decoded;
  ASSERT_TRUE(
      DecodePredictionsBody(EncodePredictionsBody(predictions), &decoded)
          .ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].location.x, 1.0);
  EXPECT_EQ(decoded[0].score, 0.75);
  EXPECT_EQ(decoded[0].source, PredictionSource::kPattern);
  EXPECT_EQ(decoded[0].pattern_id, 5);
  EXPECT_EQ(decoded[0].consequence_region, 2);
  EXPECT_EQ(decoded[0].confidence, 0.5);
  EXPECT_FALSE(decoded[0].uncertainty.IsEmpty());
  EXPECT_EQ(decoded[0].uncertainty.max().x, 3.0);
  EXPECT_EQ(decoded[1].source, PredictionSource::kMotionFunction);
  EXPECT_EQ(decoded[1].degraded, DegradedReason::kPatternUnavailable);
  EXPECT_TRUE(decoded[1].uncertainty.IsEmpty());
}

TEST(ProtocolTest, ReplStateBodyRoundTrips) {
  std::vector<WireSegment> segments = {{0, 1, 2, 4096}, {3, 7, 2, 128}};
  uint64_t generation = 0;
  std::vector<WireSegment> decoded;
  ASSERT_TRUE(DecodeReplStateBody(EncodeReplStateBody(9, segments),
                                  &generation, &decoded)
                  .ok());
  EXPECT_EQ(generation, 9u);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].shard, 3);
  EXPECT_EQ(decoded[1].seq, 7u);
  EXPECT_EQ(decoded[1].base_gen, 2u);
  EXPECT_EQ(decoded[1].size, 128u);
}

TEST(ProtocolTest, PredictionIdThatDoesNotFitAnIntIsDataLoss) {
  Prediction p;
  p.source = PredictionSource::kPattern;
  p.pattern_id = 5;
  std::string body = EncodePredictionsBody({p});
  // pattern_id is the i64 after the count, the location, score and source.
  std::string wide;
  bytes::PutI64(&wide, int64_t{1} << 40);
  body.replace(4 + 8 + 8 + 8 + 1, 8, wide);
  std::vector<Prediction> decoded;
  EXPECT_EQ(DecodePredictionsBody(body, &decoded).code(),
            StatusCode::kDataLoss);
}

TEST(ProtocolTest, ReplyThatWouldNotReEncodeIsDataLoss) {
  ReplyInfo info;
  std::string body;
  Status transported;
  // An OK status with a message: the envelope's code byte is 0.
  std::string ok_with_message =
      EncodeReply(Status::Unavailable("busy"), info, "");
  ok_with_message[1] = 0;
  EXPECT_EQ(DecodeReply(ok_with_message, &info, &body, &transported).code(),
            StatusCode::kDataLoss);
  // stale_degraded, the envelope's last byte, is a 0/1 flag.
  std::string flag_two = EncodeReply(Status::OK(), info, "");
  flag_two.back() = 2;
  EXPECT_EQ(DecodeReply(flag_two, &info, &body, &transported).code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace hpm
