// Durable-ingest tests: the write-ahead report journal wired through
// MovingObjectStore. Covers crash-replay with and without snapshots,
// rejected-report accounting survival, segment retirement, torn-tail and
// mid-log corruption handling, the quarantine cap, the kill-point sweep
// over every WAL fault site, and the ENOSPC/EIO degradation contract
// (reports keep landing, queries keep answering, the health flag trips).
//
// The fault cases need -DHPM_ENABLE_FAULTS=ON and skip themselves in
// plain builds; everything else runs everywhere.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "io/atomic_file.h"
#include "io/wal.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

/// On-disk size of one framed kReport record (frame header + payload).
const size_t kReportFrameBytes = EncodeWalFrame(WalRecord{}).size();

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

ObjectStoreOptions Options(const std::string& dir) {
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
  options.num_shards = 2;
  if (!dir.empty()) options.durability.wal_dir = dir + "/wal";
  return options;
}

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Both stores must be indistinguishable to a client: same fleet, same
/// histories, same rejection counts, same predictions from the same
/// (replayed-into-existence) models.
void ExpectSameServing(const MovingObjectStore& a,
                       const MovingObjectStore& b) {
  ASSERT_EQ(a.ObjectIds(), b.ObjectIds());
  for (ObjectId id : a.ObjectIds()) {
    ASSERT_EQ(a.HistoryLength(id), b.HistoryLength(id)) << "object " << id;
    EXPECT_EQ(a.RejectedReports(id), b.RejectedReports(id))
        << "object " << id;
    const Timestamp tq =
        static_cast<Timestamp>(a.HistoryLength(id)) - 1 + 5;
    auto pa = a.PredictLocation(id, tq);
    auto pb = b.PredictLocation(id, tq);
    ASSERT_EQ(pa.ok(), pb.ok()) << "object " << id;
    if (pa.ok()) {
      EXPECT_EQ(pa->front().location, pb->front().location)
          << "object " << id;
      EXPECT_EQ(pa->front().source, pb->front().source) << "object " << id;
    }
  }
}

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

/// The segment holding the test object's records: with one reporting
/// object, that is simply the biggest file (the rest hold only headers).
std::string BusiestSegment(const std::string& wal_dir) {
  std::string best;
  uintmax_t best_size = 0;
  for (const WalSegmentInfo& info : ListWalSegments(wal_dir)) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(info.path, ec);
    if (!ec && size > best_size) {
      best_size = size;
      best = info.path;
    }
  }
  EXPECT_FALSE(best.empty());
  return best;
}

TEST_F(DurableStoreTest, ReplayRecoversReportsNeverSnapshotted) {
  const std::string dir = FreshDir("durable_no_snapshot");
  {
    MovingObjectStore store(Options(dir));
    ASSERT_TRUE(store.wal_enabled());
    ASSERT_TRUE(store.wal_durable());
    for (ObjectId id = 0; id < 3; ++id) {
      for (Timestamp t = 0; t < 7; ++t) {
        ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
      }
    }
    // The store dies without ever saving: every acknowledged report
    // lives only in the journal.
  }
  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ObjectIds(), (std::vector<ObjectId>{0, 1, 2}));
  for (ObjectId id = 0; id < 3; ++id) {
    EXPECT_EQ(restored->HistoryLength(id), 7u);
  }
  EXPECT_EQ(restored->metrics_snapshot().counter("wal.replayed_records"),
            21u);
  EXPECT_TRUE(restored->wal_durable());
}

TEST_F(DurableStoreTest, ReplayOnTopOfSnapshotMatchesUninterruptedStore) {
  const std::string dir = FreshDir("durable_snapshot_replay");
  // Reference: the same report stream, never interrupted, never durable.
  MovingObjectStore reference((Options("")));
  {
    MovingObjectStore store(Options(dir));
    for (ObjectId id = 0; id < 2; ++id) {
      for (Timestamp t = 0; t < 10; ++t) {
        ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
        ASSERT_TRUE(reference.ReportLocation(id, Route(id, t)).ok());
      }
    }
    ASSERT_TRUE(store.SaveToDirectory(dir).ok());
    // Post-snapshot reports land in segments stamped with the new
    // generation — the crash window replay must close.
    for (ObjectId id = 0; id < 2; ++id) {
      for (Timestamp t = 10; t < 16; ++t) {
        ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
        ASSERT_TRUE(reference.ReportLocation(id, Route(id, t)).ok());
      }
    }
    // Rejections must survive too.
    EXPECT_FALSE(store.ReportLocationAt(0, 99, Route(0, 99)).ok());
    EXPECT_FALSE(reference.ReportLocationAt(0, 99, Route(0, 99)).ok());
  }
  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameServing(reference, *restored);
  EXPECT_EQ(restored->RejectedReports(0), 1u);
}

TEST_F(DurableStoreTest, ReplayRetrainsModelsBitIdentically) {
  const std::string dir = FreshDir("durable_retrain");
  MovingObjectStore reference((Options("")));
  Random rng(404);
  std::vector<Point> noisy;
  for (int day = 0; day < 6; ++day) {
    for (Timestamp off = 0; off < kPeriod; ++off) {
      Point p = Route(0, off);
      p.x += rng.Gaussian(0, 1.0);
      p.y += rng.Gaussian(0, 1.0);
      noisy.push_back(p);
    }
  }
  {
    MovingObjectStore store(Options(dir));
    for (const Point& p : noisy) {
      ASSERT_TRUE(store.ReportLocation(0, p).ok());
      ASSERT_TRUE(reference.ReportLocation(0, p).ok());
    }
    ASSERT_TRUE(store.GetPredictor(0).ok());  // training fired live
  }
  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Replay re-runs the training thresholds: the recovered store has a
  // model again and predicts exactly like the never-crashed store.
  ASSERT_TRUE(restored->GetPredictor(0).ok());
  ExpectSameServing(reference, *restored);
}

TEST_F(DurableStoreTest, OlderModelFormatIsRefusedNotQuarantined) {
  // A snapshot whose model files carry an older format version is valid
  // data this build cannot read: the load must stop with the version
  // error and leave every file where it is, not quarantine the files
  // and fall back generation by generation.
  const std::string dir = FreshDir("durable_old_model_format");
  {
    MovingObjectStore store((Options("")));
    for (Timestamp t = 0; t < 6 * kPeriod; ++t) {
      ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
    ASSERT_TRUE(store.GetPredictor(0).ok());
    ASSERT_TRUE(store.SaveToDirectory(dir).ok());
    ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  }
  // Stamp each model file as format version 2 (the u32 after the magic)
  // and re-stamp its footer CRC, as the older writer would have.
  std::vector<std::string> models;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    std::string bytes = *ReadFileToString(entry.path().string());
    const uint32_t version = 2;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    const uint32_t crc = Crc32(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    ASSERT_TRUE(AtomicWriteFile(entry.path().string(), bytes).ok());
    models.push_back(entry.path().string());
  }
  ASSERT_EQ(models.size(), 2u);

  const auto restored = MovingObjectStore::LoadFromDirectory(dir, Options(""));
  EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restored.status().message().find(
                "unsupported model format version 2"),
            std::string::npos)
      << restored.status().ToString();
  for (const std::string& model : models) {
    EXPECT_TRUE(std::filesystem::exists(model)) << model;
  }
  EXPECT_TRUE(!std::filesystem::exists(dir + "/quarantine") ||
              std::filesystem::is_empty(dir + "/quarantine"));
}

TEST_F(DurableStoreTest, SaveRetiresCoveredSegments) {
  const std::string dir = FreshDir("durable_retire");
  MovingObjectStore store(Options(dir));
  for (Timestamp t = 0; t < 5; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());  // gen 1
  for (Timestamp t = 5; t < 10; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());  // gen 2
  for (Timestamp t = 10; t < 15; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());  // gen 3

  // Segments stamped before gen-1 (= 2) are covered by both loadable
  // generations and must be gone; newer ones must survive.
  for (const WalSegmentInfo& info : ListWalSegments(dir + "/wal")) {
    ASSERT_TRUE(info.header_ok) << info.path;
    EXPECT_GE(info.base_gen, 2u) << info.path;
  }
  // The journal still recovers the full state.
  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok());
  ExpectSameServing(store, *restored);
}

TEST_F(DurableStoreTest, TornTailIsTruncatedAndCounted) {
  const std::string dir = FreshDir("durable_torn_tail");
  std::string segment;
  {
    MovingObjectStore store(Options(dir));
    for (Timestamp t = 0; t < 6; ++t) {
      ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
    segment = BusiestSegment(dir + "/wal");
  }
  // Tear mid-frame: a crash during the last append.
  const auto size = std::filesystem::file_size(segment);
  std::filesystem::resize_file(segment, size - 3);

  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The torn record was never acknowledged-and-synced whole: replay
  // keeps the five complete ones and truncates the entire torn frame
  // (the 38 surviving bytes of the 41-byte report frame).
  EXPECT_EQ(restored->HistoryLength(0), 5u);
  const MetricsSnapshot metrics = restored->metrics_snapshot();
  EXPECT_EQ(metrics.counter("wal.truncated_bytes"), kReportFrameBytes - 3);
  EXPECT_EQ(metrics.counter("wal.replayed_records"), 5u);
  EXPECT_EQ(metrics.counter("store.quarantined_files"), 0u);
}

TEST_F(DurableStoreTest, MidLogCorruptionQuarantinesSegmentAndServes) {
  const std::string dir = FreshDir("durable_mid_corruption");
  std::string segment;
  {
    MovingObjectStore store(Options(dir));
    for (Timestamp t = 0; t < 8; ++t) {
      ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
    segment = BusiestSegment(dir + "/wal");
  }
  {
    // Flip a byte in the middle of the record area — not the tail.
    std::FILE* f = std::fopen(segment.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long mid =
        static_cast<long>(std::filesystem::file_size(segment)) / 2;
    std::fseek(f, mid, SEEK_SET);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    std::fseek(f, mid, SEEK_SET);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }

  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  // Mid-log corruption must degrade, never crash or fail the load.
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_LT(restored->HistoryLength(0), 8u);
  EXPECT_EQ(restored->metrics_snapshot().counter("store.quarantined_files"),
            1u);
  const std::string name =
      std::filesystem::path(segment).filename().string();
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/wal/quarantine/" + name));
  // Serving continues: new reports land on the recovered prefix.
  const Timestamp next =
      static_cast<Timestamp>(restored->HistoryLength(0));
  EXPECT_TRUE(restored->ReportLocationAt(0, next, Route(0, next)).ok());
}

TEST_F(DurableStoreTest, QuarantineGrowthIsBounded) {
  const std::string dir = FreshDir("durable_quarantine_cap");
  ObjectStoreOptions options = Options(dir);
  options.durability.max_quarantine_files = 3;
  {
    MovingObjectStore store(options);
    for (Timestamp t = 0; t < 4; ++t) {
      ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
  }
  // A pile of headerless junk segments on a foreign shard: each one gets
  // quarantined on load, and the cap must evict the oldest so the
  // directory never grows past it.
  for (int k = 0; k < 6; ++k) {
    const std::string junk = dir + "/wal/wal-7-" + std::to_string(k) +
                             ".log";
    std::FILE* f = std::fopen(junk.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "not a journal segment %d", k);
    std::fclose(f);
  }

  auto restored = MovingObjectStore::LoadFromDirectory(dir, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->HistoryLength(0), 4u);  // real segments unharmed
  EXPECT_EQ(restored->metrics_snapshot().counter("store.quarantined_files"),
            6u);

  size_t quarantined = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           dir + "/wal/quarantine")) {
    if (entry.is_regular_file()) ++quarantined;
  }
  EXPECT_LE(quarantined, 3u);
  EXPECT_GE(quarantined, 1u);
}

// --- Fault-hook cases (need -DHPM_ENABLE_FAULTS=ON) --------------------

TEST_F(DurableStoreTest, DiskFaultDegradesToNonDurableServing) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  for (const StatusCode code :
       {StatusCode::kDataLoss, StatusCode::kUnavailable}) {
    FaultInjector::Global().Reset();
    const std::string dir = FreshDir("durable_degrade");
    MovingObjectStore store(Options(dir));
    for (Timestamp t = 0; t < 3; ++t) {
      ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
    ASSERT_TRUE(store.wal_durable());

    // The device dies (EIO / ENOSPC): every journal write fails from
    // here on. Ingest must keep acknowledging, not error out.
    FaultRule rule;
    rule.always = true;
    rule.code = code;
    FaultInjector::Global().Arm("wal/append", rule);
    for (Timestamp t = 3; t < 8; ++t) {
      EXPECT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
    }
    EXPECT_GE(FaultInjector::Global().fires("wal/append"), 1);
    EXPECT_FALSE(store.wal_durable());
    EXPECT_TRUE(store.wal_enabled());  // configured, but degraded

    // Queries keep answering on the full in-memory state.
    EXPECT_EQ(store.HistoryLength(0), 8u);
    EXPECT_TRUE(store.PredictLocation(0, 10).ok());

    const MetricsSnapshot metrics = store.metrics_snapshot();
    EXPECT_EQ(metrics.counter("store.wal_disabled"), 1u);
    EXPECT_EQ(metrics.counter("wal.appended"), 3u);
  }
#endif
}

TEST_F(DurableStoreTest, SaveStillCommitsWhenJournalRotationFails) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  const std::string dir = FreshDir("durable_rotate_degrade");
  MovingObjectStore store(Options(dir));
  for (Timestamp t = 0; t < 6; ++t) {
    ASSERT_TRUE(store.ReportLocation(0, Route(0, t)).ok());
  }
  FaultRule rule;
  rule.always = true;
  FaultInjector::Global().Arm("wal/rotate", rule);
  // Rotation failing must cost durability, never the snapshot.
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  EXPECT_FALSE(store.wal_durable());

  FaultInjector::Global().Reset();
  auto restored =
      MovingObjectStore::LoadFromDirectory(dir, Options(dir));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->HistoryLength(0), 6u);
#endif
}

// The kill-point sweep. A fault armed `from_nth_call = n` models the
// process dying at the site's n-th call: the store object degrades and
// keeps serving (that is its contract), but the *disk* now looks exactly
// as a crash at that write would leave it. The stream is cut at the
// first fire — everything acknowledged strictly before the triggering
// operation must recover, and nothing the stream never attempted may
// appear.
TEST_F(DurableStoreTest, KillPointSweepRecoversEveryAcknowledgedReport) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  constexpr ObjectId kObjects = 3;
  constexpr Timestamp kTicks = 6;
  for (const char* site : {"wal/append", "wal/sync"}) {
    for (int64_t n = 1;; ++n) {
      FaultInjector::Global().Reset();
      const std::string dir = FreshDir("durable_kill_sweep");
      FaultRule rule;
      rule.from_nth_call = n;
      FaultInjector::Global().Arm(site, rule);

      // acked[id] = ticks acknowledged before the triggering call.
      std::map<ObjectId, Timestamp> acked;
      std::map<ObjectId, uint64_t> rejected;
      bool crashed = false;
      {
        MovingObjectStore store(Options(dir));
        for (Timestamp t = 0; t < kTicks && !crashed; ++t) {
          for (ObjectId id = 0; id < kObjects; ++id) {
            const int64_t fires_before =
                FaultInjector::Global().fires(site);
            // Every third tick also throws a malformed report at the
            // store so rejection records interleave with reports.
            if (t % 3 == 2) {
              EXPECT_FALSE(
                  store.ReportLocationAt(id, t + 100, Route(id, t)).ok());
            }
            ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
            if (FaultInjector::Global().fires(site) > fires_before) {
              // The "crash": the triggering operation never returned to
              // the client in the modelled world. Cut the stream here.
              crashed = true;
              break;
            }
            acked[id] = t + 1;
            if (t % 3 == 2) rejected[id] += 1;
          }
        }
        // The store object is abandoned without a save — a crash.
      }
      if (!crashed) break;  // n exceeded the site's calls for the stream

      FaultInjector::Global().Reset();
      auto restored =
          MovingObjectStore::LoadFromDirectory(dir, Options(dir));
      ASSERT_TRUE(restored.ok()) << site << " kill " << n << ": "
                                 << restored.status().ToString();
      for (ObjectId id = 0; id < kObjects; ++id) {
        const size_t len = restored->HistoryLength(id);
        // Superset of what was acknowledged before the kill, subset of
        // what the stream ever attempted (the triggering report may or
        // may not have reached the device whole).
        EXPECT_GE(len, static_cast<size_t>(acked[id]))
            << site << " kill " << n << " object " << id;
        EXPECT_LE(len, static_cast<size_t>(kTicks))
            << site << " kill " << n << " object " << id;
        EXPECT_GE(restored->RejectedReports(id), rejected[id])
            << site << " kill " << n << " object " << id;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
#endif
}

TEST_F(DurableStoreTest, KillAtRotateOrRetireLosesNothing) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  // Rotation and retirement run inside a save: a kill there must leave a
  // directory that recovers the *complete* state — the snapshot and the
  // surviving segments together cover every acknowledged report.
  constexpr Timestamp kTicks = 8;
  for (const char* site : {"wal/rotate", "wal/retire"}) {
    for (int64_t n = 1;; ++n) {
      FaultInjector::Global().Reset();
      const std::string dir = FreshDir("durable_kill_save");
      std::map<ObjectId, Timestamp> acked;
      {
        MovingObjectStore store(Options(dir));
        for (Timestamp t = 0; t < kTicks; ++t) {
          for (ObjectId id = 0; id < 2; ++id) {
            ASSERT_TRUE(store.ReportLocation(id, Route(id, t)).ok());
            acked[id] = t + 1;
          }
          if (t == kTicks / 2) {
            // An earlier clean save so retirement has segments to cover.
            ASSERT_TRUE(store.SaveToDirectory(dir).ok());
          }
        }
        FaultRule rule;
        rule.from_nth_call = n;
        FaultInjector::Global().Arm(site, rule);
        ASSERT_TRUE(store.SaveToDirectory(dir).ok());
        if (FaultInjector::Global().fires(site) == 0) break;
        // Crash right after the save whose journal maintenance died.
      }
      FaultInjector::Global().Reset();
      auto restored =
          MovingObjectStore::LoadFromDirectory(dir, Options(dir));
      ASSERT_TRUE(restored.ok()) << site << " kill " << n << ": "
                                 << restored.status().ToString();
      for (const auto& [id, ticks] : acked) {
        EXPECT_EQ(restored->HistoryLength(id),
                  static_cast<size_t>(ticks))
            << site << " kill " << n << " object " << id;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
#endif
}

}  // namespace
}  // namespace hpm
