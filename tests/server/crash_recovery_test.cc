// Crash-safety tests for the generational store layout: corrupt or
// half-written generations must never be served — the loader falls back
// to the last good generation and quarantines what failed.
//
// The corruption cases run in every build (they vandalise files on
// disk). The kill-point sweep needs the compiled-in fault hooks and
// skips itself in plain builds.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "server/object_store.h"
#include "tpt/frozen_tpt.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

Trajectory OnePeriod(ObjectId id, Random* rng) {
  Trajectory t;
  for (Timestamp off = 0; off < kPeriod; ++off) {
    Point p = Route(id, off);
    p.x += rng->Gaussian(0, 1.0);
    p.y += rng->Gaussian(0, 1.0);
    t.Append(p);
  }
  return t;
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
  return options;
}

std::string FreshDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadSmallFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string content;
  char buf[256];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

/// The generation number CURRENT points at, as a string.
std::string CurrentGeneration(const std::string& dir) {
  std::string name = ReadSmallFile(dir + "/CURRENT");
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  return name.substr(std::string("MANIFEST-").size());
}

/// Flips one byte in the middle of `path`.
void CorruptFile(const std::string& path) {
  std::string content = ReadSmallFile(path);
  ASSERT_FALSE(content.empty());
  content[content.size() / 2] ^= 0x5a;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

/// Flips a byte inside the model's frozen-TPT arena and re-stamps the
/// outer file CRC, so the section's own checksum and validators are the
/// only remaining guard — the path a partial overwrite of just the arena
/// region would take.
void CorruptFrozenSection(const std::string& path) {
  std::string content = ReadSmallFile(path);
  ASSERT_GT(content.size(), 64u);
  const size_t body = content.size() - 8;  // "HPMC" + crc32 footer.
  size_t ftpt = std::string::npos;
  for (size_t off = content.find("FTPT"); off != std::string::npos;
       off = content.find("FTPT", off + 1)) {
    size_t consumed = 0;
    if (FrozenTpt::Parse(content.data() + off, body - off, &consumed).ok() &&
        off + consumed == body) {
      ftpt = off;
      break;
    }
  }
  ASSERT_NE(ftpt, std::string::npos) << "frozen TPT section not found";
  content[ftpt + 8] ^= 0x5a;  // Inside the section header.
  const uint32_t crc = Crc32(content.data(), body);
  std::memcpy(content.data() + body, "HPMC", 4);
  std::memcpy(content.data() + body + 4, &crc, sizeof(crc));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
}

/// Both stores must serve identical state: same fleet, same histories,
/// same answers.
void ExpectSameServing(const MovingObjectStore& a,
                       const MovingObjectStore& b) {
  ASSERT_EQ(a.ObjectIds(), b.ObjectIds());
  for (ObjectId id : a.ObjectIds()) {
    ASSERT_EQ(a.HistoryLength(id), b.HistoryLength(id)) << "object " << id;
    const Timestamp tq =
        static_cast<Timestamp>(a.HistoryLength(id)) - 1 + 5;
    auto pa = a.PredictLocation(id, tq);
    auto pb = b.PredictLocation(id, tq);
    ASSERT_EQ(pa.ok(), pb.ok()) << "object " << id;
    if (pa.ok()) {
      EXPECT_EQ(pa->front().location, pb->front().location) << "object "
                                                            << id;
      EXPECT_EQ(pa->front().source, pb->front().source) << "object " << id;
    }
  }
}

/// A trained single-object store.
MovingObjectStore TrainedStore(uint64_t seed) {
  MovingObjectStore store(Options());
  Random rng(seed);
  for (int day = 0; day < 5; ++day) {
    EXPECT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  }
  return store;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(CrashRecoveryTest, CorruptCsvFallsBackToPreviousGeneration) {
  const std::string dir = FreshDir("crash_csv_fallback");
  MovingObjectStore store = TrainedStore(41);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const size_t len_at_gen1 = store.HistoryLength(0);

  Random rng(42);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const std::string gen = CurrentGeneration(dir);
  CorruptFile(dir + "/0-" + gen + ".csv");

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The newest generation is bit-rotted: serve the previous one.
  EXPECT_EQ(restored->HistoryLength(0), len_at_gen1);
  // The corrupt file was moved aside for inspection.
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/0-" + gen + ".csv"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/0-" + gen + ".csv"));
}

TEST_F(CrashRecoveryTest, CorruptModelFallsBackToPreviousGeneration) {
  const std::string dir = FreshDir("crash_model_fallback");
  MovingObjectStore store = TrainedStore(43);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const size_t len_at_gen1 = store.HistoryLength(0);

  Random rng(44);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const std::string gen = CurrentGeneration(dir);
  CorruptFile(dir + "/0-" + gen + ".model");

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->HistoryLength(0), len_at_gen1);
  ASSERT_TRUE(restored->GetPredictor(0).ok());
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/quarantine/0-" + gen + ".model"));
}

TEST_F(CrashRecoveryTest, CorruptFrozenArenaFallsBackToPreviousGeneration) {
  // Only the frozen search arena is rotted and the outer file CRC is
  // made to lie: the section-level checksum must still turn the load
  // into quarantine + fallback, never a crash or a silently wrong tree.
  const std::string dir = FreshDir("crash_frozen_arena_fallback");
  MovingObjectStore store = TrainedStore(47);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const size_t len_at_gen1 = store.HistoryLength(0);

  Random rng(48);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &rng)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  const std::string gen = CurrentGeneration(dir);
  CorruptFrozenSection(dir + "/0-" + gen + ".model");

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->HistoryLength(0), len_at_gen1);
  ASSERT_TRUE(restored->GetPredictor(0).ok());
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/quarantine/0-" + gen + ".model"));
}

TEST_F(CrashRecoveryTest, SingleGenerationCorruptionIsDataLoss) {
  const std::string dir = FreshDir("crash_single_gen");
  MovingObjectStore store = TrainedStore(45);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  CorruptFile(dir + "/0-" + CurrentGeneration(dir) + ".csv");

  const Status status =
      MovingObjectStore::LoadFromDirectory(dir, Options()).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("no loadable store generation"),
            std::string::npos);
}

TEST_F(CrashRecoveryTest, DanglingCurrentFallsBackToRealManifest) {
  const std::string dir = FreshDir("crash_dangling_current");
  MovingObjectStore store = TrainedStore(46);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());

  // CURRENT names a generation that was never written (a crash between
  // manifest write and commit, replayed backwards).
  std::FILE* f = std::fopen((dir + "/CURRENT").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("MANIFEST-99\n", f);
  std::fclose(f);

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameServing(store, *restored);
}

TEST_F(CrashRecoveryTest, GarbageCurrentFallsBackToRealManifest) {
  const std::string dir = FreshDir("crash_garbage_current");
  MovingObjectStore store = TrainedStore(47);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  std::FILE* f = std::fopen((dir + "/CURRENT").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a manifest name at all", f);
  std::fclose(f);

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameServing(store, *restored);
}

// --- Fault-hook cases (need -DHPM_ENABLE_FAULTS=ON) --------------------

TEST_F(CrashRecoveryTest, TransientSaveFaultIsAbsorbedByRetry) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  const std::string dir = FreshDir("crash_transient_save");
  MovingObjectStore store = TrainedStore(48);
  FaultRule rule;
  rule.nth_call = 1;
  FaultInjector::Global().Arm("store/save_object", rule);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  EXPECT_EQ(FaultInjector::Global().fires("store/save_object"), 1);

  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok());
  ExpectSameServing(store, *restored);
#endif
}

TEST_F(CrashRecoveryTest, TransientLoadFaultIsAbsorbedByRetry) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  const std::string dir = FreshDir("crash_transient_load");
  MovingObjectStore store = TrainedStore(49);
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());

  FaultRule rule;
  rule.nth_call = 1;
  FaultInjector::Global().Arm("store/load_read", rule);
  auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(FaultInjector::Global().fires("store/load_read"), 1);
  ExpectSameServing(store, *restored);
#endif
}

TEST_F(CrashRecoveryTest, KillPointSweepAlwaysRecoversLastGoodState) {
#ifndef HPM_ENABLE_FAULTS
  GTEST_SKIP() << "fault hooks compiled out";
#else
  // Simulate a crash at every write the save path performs: a fault that
  // fires from call N onward models the process dying there (retries
  // keep failing). After every kill, the directory must still load to
  // the last committed state.
  const std::string dir = FreshDir("crash_kill_sweep");
  MovingObjectStore store(Options());
  Random rng(50);
  for (ObjectId id : {0, 1}) {
    for (int day = 0; day < 5; ++day) {
      ASSERT_TRUE(store.ReportTrajectory(id, OnePeriod(id, &rng)).ok());
    }
  }
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());

  const char* const kill_sites[] = {"store/save_object",
                                    "store/save_manifest",
                                    "store/save_commit", "io/atomic_write"};
  for (const char* site : kill_sites) {
    for (int64_t n = 1;; ++n) {
      FaultInjector::Global().Reset();
      FaultRule rule;
      rule.from_nth_call = n;
      FaultInjector::Global().Arm(site, rule);
      const Status status = store.SaveToDirectory(dir);
      if (status.ok()) break;  // n exceeds the site's calls per save.

      FaultInjector::Global().Reset();
      auto restored = MovingObjectStore::LoadFromDirectory(dir, Options());
      ASSERT_TRUE(restored.ok())
          << "kill " << site << " call " << n << ": "
          << restored.status().ToString();
      ExpectSameServing(store, *restored);
      if (::testing::Test::HasFailure()) return;
    }
  }

  // With faults gone, a fresh save commits a clean new generation.
  FaultInjector::Global().Reset();
  Random more(51);
  ASSERT_TRUE(store.ReportTrajectory(0, OnePeriod(0, &more)).ok());
  ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  auto final_load = MovingObjectStore::LoadFromDirectory(dir, Options());
  ASSERT_TRUE(final_load.ok()) << final_load.status().ToString();
  ExpectSameServing(store, *final_load);
#endif
}

}  // namespace
}  // namespace hpm
