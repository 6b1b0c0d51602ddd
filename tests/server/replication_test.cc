// Primary/replica replication: bootstrap, journal-tail shipping, mirror
// healing, divergence detection, and (in fault builds) kill-point sweeps
// over the fetch and apply paths.
//
// Everything runs in-process over loopback: a primary MovingObjectStore
// with a journal + an HpmServer in front, and a replica store fed by a
// Replicator. The differential model checks live in prop_repl_test.cc.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"
#include "server/replication.h"
#include "server/store_layout.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

ObjectStoreOptions Options() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = 5;
  options.recent_window = 5;
  options.num_shards = 4;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  char buf[4096];
  size_t n = 0;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return content;
}

/// A primary store + server and one replica store + replicator, all over
/// loopback.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef HPM_ENABLE_FAULTS
    FaultInjector::Global().Reset();
#endif
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    primary_dir_ = FreshDir(std::string("repl_p_") + info->name());
    replica_dir_ = FreshDir(std::string("repl_r_") + info->name());
    std::filesystem::create_directories(primary_dir_ + "/wal");

    ObjectStoreOptions options = Options();
    options.durability.wal_dir = primary_dir_ + "/wal";
    options.durability.sync_policy = WalSyncPolicy::kNone;
    primary_ = std::make_unique<MovingObjectStore>(options);
  }

  void TearDown() override {
#ifdef HPM_ENABLE_FAULTS
    FaultInjector::Global().Reset();
#endif
  }

  void StartServer() {
    HpmServerOptions options;
    options.data_dir = primary_dir_;
    StatusOr<std::unique_ptr<HpmServer>> server =
        HpmServer::Start(primary_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);

    HpmClientOptions client_options;
    client_options.port = server_->port();
    client_ = std::make_unique<HpmClient>(client_options);
    client_->set_sleep_fn([](std::chrono::microseconds) {});
  }

  /// Appends `periods` full periods for `id` to the primary.
  void Feed(ObjectId id, int periods) {
    const Timestamp start = static_cast<Timestamp>(primary_->HistoryLength(id));
    for (Timestamp t = start; t < start + periods * kPeriod; ++t) {
      ASSERT_TRUE(primary_->ReportLocation(id, Route(id, t)).ok());
    }
  }

  /// Bootstraps replica_dir_ from the primary and builds the replica
  /// store (journal-less: the mirror belongs to the primary's bytes) and
  /// its Replicator.
  void BuildReplica() {
    replicator_.reset();
    StatusOr<uint64_t> gen = BootstrapReplica(*client_, replica_dir_);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    if (*gen == 0) {
      replica_ = std::make_unique<MovingObjectStore>(Options());
    } else {
      StatusOr<MovingObjectStore> loaded =
          MovingObjectStore::LoadFromDirectory(replica_dir_, Options());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      replica_ = std::make_unique<MovingObjectStore>(std::move(*loaded));
    }
    health_ = std::make_unique<ReplicaHealth>();
    ReplicatorOptions options;
    options.data_dir = replica_dir_;
    replicator_ = std::make_unique<Replicator>(client_.get(), replica_.get(),
                                               health_.get(),
                                               replica_->generation(), options);
    ASSERT_TRUE(replicator_->CatchUpFromMirror().ok());
  }

  /// Rebuilds the replica store + replicator from what is already on the
  /// replica's disk — the killed-and-restarted follower. Returns the
  /// mirror catch-up status (an error flags divergence, not a crash).
  Status RestartReplica() {
    replicator_.reset();
    replica_.reset();
    StatusOr<MovingObjectStore> loaded =
        MovingObjectStore::LoadFromDirectory(replica_dir_, Options());
    if (loaded.ok()) {
      replica_ = std::make_unique<MovingObjectStore>(std::move(*loaded));
    } else {
      // Journal-only replica: no snapshot was ever bootstrapped.
      replica_ = std::make_unique<MovingObjectStore>(Options());
    }
    health_ = std::make_unique<ReplicaHealth>();
    ReplicatorOptions options;
    options.data_dir = replica_dir_;
    replicator_ = std::make_unique<Replicator>(client_.get(), replica_.get(),
                                               health_.get(),
                                               replica_->generation(), options);
    return replicator_->CatchUpFromMirror();
  }

  void ExpectConverged(const std::vector<ObjectId>& ids) {
    for (ObjectId id : ids) {
      EXPECT_EQ(replica_->HistoryLength(id), primary_->HistoryLength(id))
          << "object " << id;
      EXPECT_EQ(replica_->RejectedReports(id), primary_->RejectedReports(id))
          << "object " << id;
      const Timestamp tq =
          static_cast<Timestamp>(primary_->HistoryLength(id)) + 3;
      StatusOr<std::vector<Prediction>> want =
          primary_->PredictLocation(id, tq, 2);
      StatusOr<std::vector<Prediction>> got =
          replica_->PredictLocation(id, tq, 2);
      ASSERT_EQ(want.ok(), got.ok()) << "object " << id;
      if (!want.ok()) continue;
      ASSERT_EQ(want->size(), got->size()) << "object " << id;
      for (size_t i = 0; i < want->size(); ++i) {
        EXPECT_EQ((*want)[i].location.x, (*got)[i].location.x);
        EXPECT_EQ((*want)[i].location.y, (*got)[i].location.y);
        EXPECT_EQ((*want)[i].score, (*got)[i].score);
        EXPECT_EQ((*want)[i].source, (*got)[i].source);
      }
    }
  }

  std::string primary_dir_;
  std::string replica_dir_;
  std::unique_ptr<MovingObjectStore> primary_;
  std::unique_ptr<HpmServer> server_;
  std::unique_ptr<HpmClient> client_;
  std::unique_ptr<MovingObjectStore> replica_;
  std::unique_ptr<ReplicaHealth> health_;
  std::unique_ptr<Replicator> replicator_;
};

TEST_F(ReplicationTest, BootstrapSnapshotPlusJournalTailConverges) {
  // Snapshot (gen 1) + a journal tail on top of it + rejected-report
  // tallies that only the journal carries.
  Feed(1, 6);
  Feed(2, 6);
  EXPECT_FALSE(primary_->ReportLocation(1, Point(std::nan(""), 0.0)).ok());
  EXPECT_FALSE(primary_->ReportLocation(1, Point(std::nan(""), 0.0)).ok());
  ASSERT_TRUE(primary_->SaveToDirectory(primary_dir_).ok());
  Feed(1, 1);
  EXPECT_FALSE(primary_->ReportLocation(2, Point(0.0, std::nan(""))).ok());
  StartServer();

  BuildReplica();
  EXPECT_EQ(replica_->generation(), 1u);
  ASSERT_TRUE(replicator_->SyncOnce().ok())
      << replicator_->last_status().ToString();
  ExpectConverged({1, 2});
  EXPECT_EQ(health_->generation.load(), primary_->generation());
  EXPECT_EQ(health_->lag_bytes.load(), 0u);
  EXPECT_GT(replicator_->applied_records(), 0u);
  EXPECT_FALSE(replicator_->resync_required());
}

TEST_F(ReplicationTest, NeverSavedPrimaryReplicatesFromPureJournal) {
  Feed(1, 2);
  StartServer();
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  ExpectConverged({1});

  // The replica keeps following ongoing writes, including ones that
  // arrive over the wire.
  Feed(1, 1);
  ReportRequest wire;
  wire.id = 1;
  wire.x = Route(1, 0).x;
  wire.y = Route(1, 0).y;
  ASSERT_TRUE(client_->Report(wire).ok());
  const uint64_t before = replicator_->applied_records();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  EXPECT_GT(replicator_->applied_records(), before);
  ExpectConverged({1});
}

TEST_F(ReplicationTest, RestartedReplicaCatchesUpFromItsMirror) {
  Feed(1, 6);
  ASSERT_TRUE(primary_->SaveToDirectory(primary_dir_).ok());
  Feed(1, 2);
  StartServer();
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // Kill the replica process (drop its in-memory store) and restart it
  // from disk: snapshot + mirror replay must reconverge, and the next
  // sync must pick up writes that happened while it was down.
  Feed(1, 1);
  ASSERT_TRUE(RestartReplica().ok());
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  ExpectConverged({1});
}

TEST_F(ReplicationTest, TornMirrorTailIsTruncatedAndRefetched) {
  Feed(1, 3);
  StartServer();
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // Tear the tail of every mirrored segment — the replica crashed
  // mid-fetch. Restart must truncate the torn bytes and refetch them.
  const std::string mirror = replica_dir_ + "/wal";
  std::vector<WalSegmentInfo> segments = ListWalSegments(mirror);
  ASSERT_FALSE(segments.empty());
  for (const WalSegmentInfo& segment : segments) {
    std::FILE* f = std::fopen(segment.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char torn[] = "\x40\x00\x00\x00half-a-frame";
    ASSERT_GT(std::fwrite(torn, 1, sizeof(torn) - 1, f), 0u);
    std::fclose(f);
  }

  ASSERT_TRUE(RestartReplica().ok());
  ASSERT_TRUE(replicator_->SyncOnce().ok())
      << replicator_->last_status().ToString();
  ExpectConverged({1});
  // The mirror is byte-identical to the primary's journal again.
  for (const WalSegmentInfo& segment : ListWalSegments(mirror)) {
    const std::string name =
        std::filesystem::path(segment.path).filename().string();
    EXPECT_EQ(ReadFileBytes(segment.path),
              ReadFileBytes(primary_dir_ + "/wal/" + name))
        << name;
  }
}

TEST_F(ReplicationTest, BootstrapRefusesAManifestThatFailsItsChecksum) {
  Feed(1, 6);
  Feed(2, 6);
  ASSERT_TRUE(primary_->SaveToDirectory(primary_dir_).ok());
  // Flip one hex digit of the trailing checksum line: every object line
  // still names a real file, so only the checksum check can refuse it.
  const std::string manifest_path =
      primary_dir_ + "/" + ManifestName(primary_->generation());
  std::string manifest = ReadFileBytes(manifest_path);
  const size_t crc_line = manifest.rfind("crc32 ");
  ASSERT_NE(crc_line, std::string::npos);
  char& digit = manifest[crc_line + 6];
  digit = digit == '0' ? '1' : '0';
  std::FILE* f = std::fopen(manifest_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(manifest.data(), 1, manifest.size(), f),
            manifest.size());
  std::fclose(f);
  StartServer();

  StatusOr<uint64_t> gen = BootstrapReplica(*client_, replica_dir_);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kDataLoss)
      << gen.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(replica_dir_ + "/CURRENT"));
}

TEST_F(ReplicationTest, JournalGapFlipsResyncRequired) {
  Feed(1, 2);
  StartServer();
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());

  // A mirror segment whose first record is beyond the object's clock —
  // the primary retired journal the replica still needed. The replica
  // must refuse to apply past the gap and demand a re-bootstrap.
  WalWriterOptions wal_options;
  wal_options.sync_policy = WalSyncPolicy::kNone;
  StatusOr<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(replica_dir_ + "/wal", 3, 999, 0, wal_options);
  ASSERT_TRUE(writer.ok());
  WalRecord gap;
  gap.id = 77;
  gap.t = 5;  // object 77 has no history: next tick is 0
  gap.x = 1.0;
  gap.y = 2.0;
  ASSERT_TRUE((*writer)->Append(gap, nullptr).ok());
  writer->reset();

  const Status caught_up = RestartReplica();
  EXPECT_FALSE(caught_up.ok());
  EXPECT_TRUE(replicator_->resync_required());
}

TEST_F(ReplicationTest, LaggingFollowerFlipsPrimaryHealthFlag) {
  StartServer();
  ReplStateRequest lagging;
  lagging.follower_lag_bytes = 64 * 1024 * 1024;
  ASSERT_TRUE(client_->ReplState(lagging).ok());
  EXPECT_TRUE(server_->follower_lagging());
  EXPECT_GE(server_->metrics_snapshot().counter("repl.follower_lagging"), 1u);

  ReplStateRequest caught_up;
  caught_up.follower_lag_bytes = 0;
  ASSERT_TRUE(client_->ReplState(caught_up).ok());
  EXPECT_FALSE(server_->follower_lagging());
}

#ifdef HPM_ENABLE_FAULTS

TEST_F(ReplicationTest, FetchKillPointSweepStillConverges) {
  Feed(1, 6);
  ASSERT_TRUE(primary_->SaveToDirectory(primary_dir_).ok());
  Feed(1, 2);
  StartServer();

  // Count the fetch RPCs one full bootstrap+sync makes...
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  const int64_t fetch_calls = FaultInjector::Global().calls("repl/fetch");
  ASSERT_GT(fetch_calls, 0);

  // ...then kill each one in turn. The client retries the injected
  // kUnavailable, so every kill point must still converge.
  for (int64_t k = 1; k <= fetch_calls; ++k) {
    std::filesystem::remove_all(replica_dir_);
    FaultInjector::Global().Reset();
    FaultRule rule;
    rule.nth_call = k;
    rule.max_fires = 1;
    rule.message = "injected fetch failure";
    FaultInjector::Global().Arm("repl/fetch", rule);
    BuildReplica();
    Status synced = replicator_->SyncOnce();
    if (!synced.ok()) synced = replicator_->SyncOnce();
    ASSERT_TRUE(synced.ok()) << "kill point " << k << ": "
                             << synced.ToString();
    ExpectConverged({1});
    EXPECT_FALSE(replicator_->resync_required()) << "kill point " << k;
  }
  FaultInjector::Global().Reset();
}

TEST_F(ReplicationTest, ApplyKillPointSweepStillConverges) {
  Feed(1, 3);
  StartServer();
  BuildReplica();
  ASSERT_TRUE(replicator_->SyncOnce().ok());
  const int64_t apply_calls = FaultInjector::Global().calls("repl/apply");
  ASSERT_GT(apply_calls, 0);

  for (int64_t k = 1; k <= apply_calls; ++k) {
    std::filesystem::remove_all(replica_dir_);
    FaultInjector::Global().Reset();
    FaultRule rule;
    rule.nth_call = k;
    rule.max_fires = 1;
    rule.message = "injected apply failure";
    FaultInjector::Global().Arm("repl/apply", rule);
    BuildReplica();
    // The poisoned sync fails partway; the next one resumes from the
    // cursor and finishes the job.
    Status synced = replicator_->SyncOnce();
    if (!synced.ok()) synced = replicator_->SyncOnce();
    ASSERT_TRUE(synced.ok()) << "kill point " << k << ": "
                             << synced.ToString();
    ExpectConverged({1});
    EXPECT_FALSE(replicator_->resync_required()) << "kill point " << k;
  }
  FaultInjector::Global().Reset();
}

TEST_F(ReplicationTest, TornBootstrapTransferIsRetriedToConvergence) {
  Feed(1, 6);
  ASSERT_TRUE(primary_->SaveToDirectory(primary_dir_).ok());
  StartServer();

  // Tear the first few frame sends of the snapshot transfer (client and
  // server share the process-global site). The client's transport retry
  // reconnects and the bootstrap completes.
  for (int64_t k = 1; k <= 3; ++k) {
    std::filesystem::remove_all(replica_dir_);
    FaultInjector::Global().Reset();
    FaultRule rule;
    rule.nth_call = k;
    rule.max_fires = 1;
    FaultInjector::Global().Arm("net/send", rule);
    BuildReplica();
    ASSERT_TRUE(replicator_->SyncOnce().ok()) << "kill point " << k;
    ExpectConverged({1});
    EXPECT_EQ(FaultInjector::Global().fires("net/send"), 1)
        << "kill point " << k;
  }
  FaultInjector::Global().Reset();
}

#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
