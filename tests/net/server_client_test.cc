// HpmServer + HpmClient over loopback: round trips, read-your-writes,
// replica stamping, bounded backlog with retry-after, malformed-frame
// handling, and (in fault builds) torn-frame retry.

#include <chrono>
#include <climits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "proptest/generators.h"
#include "server/object_store.h"

namespace hpm {
namespace {

HpmClientOptions ClientFor(const HpmServer& server) {
  HpmClientOptions options;
  options.port = server.port();
  return options;
}

TEST(ServerClientTest, PingStampsThePrimaryEnvelope) {
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  HpmClient client(ClientFor(**server));

  StatusOr<ReplyInfo> info = client.Ping();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->role, ServerRole::kPrimary);
  EXPECT_EQ(info->generation, 0u);
  EXPECT_EQ(info->staleness_us, 0u);  // read-your-writes
  EXPECT_FALSE(info->stale_degraded);
}

TEST(ServerClientTest, ReportsAreReadYourWrites) {
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));

  for (int t = 0; t < 16; ++t) {
    ReportRequest report;
    report.id = 42;
    report.x = 1.0 * t;
    report.y = 0.5 * t;
    StatusOr<ReplyInfo> acked = client.Report(report);
    ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  }
  EXPECT_EQ(store.HistoryLength(42), 16u);

  // The networked answer must equal the in-process answer bit for bit.
  PredictRequest predict;
  predict.id = 42;
  predict.tq = 20;
  StatusOr<PredictReply> over_wire = client.Predict(predict);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  StatusOr<std::vector<Prediction>> direct =
      store.PredictLocation(42, 20, 1, Deadline::Infinite());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(over_wire->predictions.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(over_wire->predictions[i].location.x, (*direct)[i].location.x);
    EXPECT_EQ(over_wire->predictions[i].location.y, (*direct)[i].location.y);
    EXPECT_EQ(over_wire->predictions[i].score, (*direct)[i].score);
    EXPECT_EQ(over_wire->predictions[i].source, (*direct)[i].source);
  }

  // Explicit-t reports enforce the object clock over the wire too.
  ReportRequest stale;
  stale.id = 42;
  stale.t = 3;  // already acknowledged
  StatusOr<ReplyInfo> refused = client.Report(stale);
  EXPECT_FALSE(refused.ok());
}

TEST(ServerClientTest, RangeAndKnnTravelTheWire) {
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));
  for (ObjectId id = 1; id <= 3; ++id) {
    for (int t = 0; t < 12; ++t) {
      ASSERT_TRUE(
          store.ReportLocation(id, Point(1.0 * id + 0.01 * t, 2.0)).ok());
    }
  }

  RangeRequest range;
  range.min_x = 0.0;
  range.min_y = 0.0;
  range.max_x = 10.0;
  range.max_y = 10.0;
  range.tq = 12;
  StatusOr<FleetReply> hits = client.Range(range);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->result.hits.size(), 3u);

  KnnRequest knn;
  knn.x = 1.0;
  knn.y = 2.0;
  knn.tq = 12;
  knn.n = 2;
  StatusOr<FleetReply> nearest = client.Knn(knn);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  EXPECT_EQ(nearest->result.hits.size(), 2u);

  StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->json.empty());
  EXPECT_EQ(stats->json.front(), '{');
}

TEST(ServerClientTest, HugeKIsAnsweredAndTopBitKIsRejected) {
  // Objects with trained models, so predictions take the pattern path
  // and rank every matching pattern.
  ObjectStoreOptions options;
  options.predictor.regions.period = 10;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 5;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  MovingObjectStore store(options);
  Random rng(7);
  const BoundingBox extent({0.0, 0.0}, {10000.0, 10000.0});
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(store
                    .ReportTrajectory(id, proptest::PeriodicHistory(
                                              rng, 10, 6, extent, 1.0))
                    .ok());
    ASSERT_TRUE(store.GetPredictor(id).ok());
  }
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));

  PredictRequest predict;
  predict.id = 1;
  predict.tq = 62;
  predict.k = INT_MAX;
  StatusOr<PredictReply> all = client.Predict(predict);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  StatusOr<std::vector<Prediction>> direct =
      store.PredictLocation(1, 62, INT_MAX, Deadline::Infinite());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(all->predictions.size(), direct->size());
  ASSERT_FALSE(direct->empty());
  EXPECT_LE(direct->size(), (*store.GetPredictor(1))->PatternTable().size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(all->predictions[i].pattern_id, (*direct)[i].pattern_id);
    EXPECT_EQ(all->predictions[i].score, (*direct)[i].score);
  }

  RangeRequest range;
  range.max_x = 10000.0;
  range.max_y = 10000.0;
  range.tq = 62;
  range.k_per_object = INT_MAX;
  StatusOr<FleetReply> hits = client.Range(range);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->result.hits.size(), 4u);

  // A k whose u32 wire form has the top bit set decodes negative and is
  // refused, on both entry points.
  predict.k = INT_MIN;
  StatusOr<PredictReply> refused = client.Predict(predict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  range.k_per_object = -1;  // 0xFFFFFFFF on the wire
  StatusOr<FleetReply> refused_range = client.Range(range);
  ASSERT_FALSE(refused_range.ok());
  EXPECT_EQ(refused_range.status().code(), StatusCode::kInvalidArgument);

  // The connection still serves after the refusals.
  predict.k = 3;
  EXPECT_TRUE(client.Predict(predict).ok());
}

TEST(ServerClientTest, StatsMergesStoreAndServerCounters) {
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));
  ASSERT_TRUE(client.Report(ReportRequest{5, -1, 1.0, 2.0}).ok());

  // One document for the remote operator: the store's serving counters
  // and the server's own net.*/repl.* rows, merged.
  StatusOr<StatsReply> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->json.find("\"net.requests\""), std::string::npos);
  EXPECT_NE(stats->json.find("\"repl.state_requests\""), std::string::npos);
  EXPECT_NE(stats->json.find("\"store.admitted.report\""), std::string::npos);
  EXPECT_NE(stats->json.find("\"rebuild.completed\""), std::string::npos);
  EXPECT_NE(stats->json.find("\"miner.transactions\""), std::string::npos);
}

TEST(ServerClientTest, ReplicaRefusesWritesAndStampsStaleness) {
  MovingObjectStore store{ObjectStoreOptions{}};
  ReplicaHealth health;
  HpmServerOptions options;
  options.role = ServerRole::kReplica;
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, options, &health);
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));

  // Before any sync the replica is maximally stale: degraded-stale.
  StatusOr<ReplyInfo> info = client.Ping();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->role, ServerRole::kReplica);
  EXPECT_TRUE(info->stale_degraded);

  StatusOr<ReplyInfo> refused = client.Report(ReportRequest{1, -1, 0.0, 0.0});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // After a sync the stamp carries the synced generation and a bounded
  // staleness.
  health.RecordSync(7, 0);
  info = client.Ping();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->generation, 7u);
  EXPECT_FALSE(info->stale_degraded);
  EXPECT_LT(info->staleness_us, 2000000u);
}

TEST(ServerClientTest, ReplicaStartRequiresHealth) {
  MovingObjectStore store{ObjectStoreOptions{}};
  HpmServerOptions options;
  options.role = ServerRole::kReplica;
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, options, nullptr);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServerClientTest, SaturatedBacklogAnswersBusyWithRetryAfter) {
  MovingObjectStore store{ObjectStoreOptions{}};
  HpmServerOptions options;
  options.handler_threads = 1;
  options.max_pending_connections = 1;
  options.busy_retry_after = std::chrono::microseconds(12345);
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, options);
  ASSERT_TRUE(server.ok());
  const int port = (*server)->port();

  // First connection occupies the only handler thread...
  StatusOr<Socket> held =
      Socket::Connect("127.0.0.1", port, Deadline::AfterMillis(2000));
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(
      SendFrame(*held, EncodePing(), Deadline::AfterMillis(2000)).ok());
  ASSERT_TRUE(RecvFrame(*held, Deadline::AfterMillis(2000)).ok());
  // ...the second fills the one queue slot...
  StatusOr<Socket> queued =
      Socket::Connect("127.0.0.1", port, Deadline::AfterMillis(2000));
  ASSERT_TRUE(queued.ok());
  // ...and the third is bounced with a machine-readable retry hint.
  // The accept loop may need a beat to drain, so poll a few connects.
  Status transported = Status::OK();
  for (int attempt = 0; attempt < 50; ++attempt) {
    StatusOr<Socket> bounced =
        Socket::Connect("127.0.0.1", port, Deadline::AfterMillis(2000));
    ASSERT_TRUE(bounced.ok());
    StatusOr<std::string> reply =
        RecvFrame(*bounced, Deadline::AfterMillis(2000));
    if (!reply.ok()) continue;  // raced the backlog; try again
    ReplyInfo info;
    std::string body;
    ASSERT_TRUE(DecodeReply(*reply, &info, &body, &transported).ok());
    if (!transported.ok()) break;
  }
  ASSERT_EQ(transported.code(), StatusCode::kUnavailable);
  const auto hint = RetryAfterHint(transported);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->count(), 12345);
  EXPECT_GE((*server)->metrics_snapshot().counter("net.busy_rejected"), 1u);
}

TEST(ServerClientTest, MalformedRequestIsAnsweredThenDropped) {
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());

  StatusOr<Socket> socket = Socket::Connect("127.0.0.1", (*server)->port(),
                                            Deadline::AfterMillis(2000));
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(SendFrame(*socket, "\xFFgarbage-but-checksummed",
                        Deadline::AfterMillis(2000))
                  .ok());
  StatusOr<std::string> reply =
      RecvFrame(*socket, Deadline::AfterMillis(2000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ReplyInfo info;
  std::string body;
  Status transported;
  ASSERT_TRUE(DecodeReply(*reply, &info, &body, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kDataLoss);

  // The stream is dropped after the error reply.
  bool clean_eof = false;
  StatusOr<std::string> next =
      RecvFrame(*socket, Deadline::AfterMillis(2000), &clean_eof);
  EXPECT_FALSE(next.ok());
  EXPECT_TRUE(clean_eof);
  EXPECT_GE((*server)->metrics_snapshot().counter("net.bad_frames"), 1u);
}

TEST(ServerClientTest, IdleConnectionsAreClosed) {
  MovingObjectStore store{ObjectStoreOptions{}};
  HpmServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, options);
  ASSERT_TRUE(server.ok());

  StatusOr<Socket> socket = Socket::Connect("127.0.0.1", (*server)->port(),
                                            Deadline::AfterMillis(2000));
  ASSERT_TRUE(socket.ok());
  ASSERT_TRUE(
      SendFrame(*socket, EncodePing(), Deadline::AfterMillis(2000)).ok());
  ASSERT_TRUE(RecvFrame(*socket, Deadline::AfterMillis(2000)).ok());

  bool clean_eof = false;
  StatusOr<std::string> next =
      RecvFrame(*socket, Deadline::AfterMillis(5000), &clean_eof);
  EXPECT_FALSE(next.ok());
  EXPECT_TRUE(clean_eof);
}

#ifdef HPM_ENABLE_FAULTS
TEST(ServerClientTest, TornFrameIsRetriedTransparently) {
  FaultInjector::Global().Reset();
  MovingObjectStore store{ObjectStoreOptions{}};
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, HpmServerOptions{});
  ASSERT_TRUE(server.ok());
  HpmClient client(ClientFor(**server));
  client.set_sleep_fn([](std::chrono::microseconds) {});

  // The first frame send in the process (client or server side) ships
  // half a frame and kills the connection; the client's retry opens a
  // fresh one and completes.
  FaultRule rule;
  rule.nth_call = 1;
  rule.max_fires = 1;
  FaultInjector::Global().Arm("net/send", rule);
  StatusOr<ReplyInfo> info = client.Ping();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(FaultInjector::Global().fires("net/send"), 1);

  // Same for a dropped receive.
  FaultInjector::Global().Reset();
  FaultRule recv_rule;
  recv_rule.nth_call = 1;
  recv_rule.max_fires = 1;
  FaultInjector::Global().Arm("net/recv", recv_rule);
  info = client.Ping();
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  FaultInjector::Global().Reset();
}
#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
