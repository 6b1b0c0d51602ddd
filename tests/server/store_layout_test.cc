// The store's file layout: the fetch guard accepts exactly the names the
// writer makes (checked over names built by hand and over a real store
// directory), and resolves each to where the writer put it.

#include "server/store_layout.h"

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "io/atomic_file.h"
#include "io/wal.h"
#include "server/object_store.h"

namespace hpm {
namespace {

constexpr Timestamp kPeriod = 20;

ObjectStoreOptions Options(const std::string& wal_dir) {
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
  options.durability.wal_dir = wal_dir;
  options.durability.sync_policy = WalSyncPolicy::kNone;
  return options;
}

void Feed(MovingObjectStore& store, ObjectId id, int periods) {
  const Timestamp start = static_cast<Timestamp>(store.HistoryLength(id));
  for (Timestamp t = start; t < start + periods * kPeriod; ++t) {
    const Point p(100.0 * static_cast<double>(t % kPeriod) + 50.0,
                  500.0 + 1000.0 * static_cast<double>(id));
    ASSERT_TRUE(store.ReportLocation(id, p).ok());
  }
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(StoreLayoutTest, FetchableFileWhitelist) {
  bool is_wal = false;
  EXPECT_TRUE(IsFetchableStoreFile("CURRENT", &is_wal));
  EXPECT_FALSE(is_wal);
  EXPECT_TRUE(IsFetchableStoreFile("MANIFEST-12", &is_wal));
  EXPECT_TRUE(IsFetchableStoreFile("7-3.csv", &is_wal));
  EXPECT_TRUE(IsFetchableStoreFile("7-3.model", &is_wal));
  EXPECT_TRUE(IsFetchableStoreFile("wal/wal-0-2.log", &is_wal));
  EXPECT_TRUE(is_wal);

  EXPECT_FALSE(IsFetchableStoreFile("", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("../etc/passwd", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("/etc/passwd", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("wal/../CURRENT", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("MANIFEST-", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("MANIFEST-01", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("7-3.csv.bak", &is_wal));
  EXPECT_FALSE(IsFetchableStoreFile("quarantine/7-3.csv", &is_wal));
}

TEST(StoreLayoutTest, HostileNamesAreRefused) {
  const std::string thirty_digits = "123456789012345678901234567890";
  bool is_wal = false;
  for (const std::string& name : std::vector<std::string>{
           "MANIFEST-" + thirty_digits,
           "7-" + thirty_digits + ".csv",
           thirty_digits + "-3.model",
           "wal/wal-0-" + thirty_digits + ".log",
           "wal/wal-2147483648-1.log",  // shard above INT_MAX
           "wal/wal-4294967296-1.log",
           "wal/wal--1-2.log",  // negative shard
           "wal/wal-+1-2.log",
           "wal/wal-0-2.log/",
           "wal/wal-00-2.log",
           "-0-3.csv",
           "7--3.csv",
           "7-+3.csv",
           " 7-3.csv",
           "7-3.CSV",
           "MANIFEST--1",
           "MANIFEST- 1",
           std::string("CURRENT\0", 8),
           std::string("MANIFEST-1\0", 11),
           std::string("7-3.csv\0.bak", 12),
           std::string("wal/wal-0-2.log\0", 16),
       }) {
    EXPECT_FALSE(IsFetchableStoreFile(name, &is_wal)) << name;
    EXPECT_EQ(FetchableStoreFilePath("d", "d/wal", name).status().code(),
              StatusCode::kInvalidArgument)
        << name;
  }
  // The largest numbers the writer can make are still its names.
  EXPECT_TRUE(IsFetchableStoreFile("wal/wal-2147483647-1.log", &is_wal));
  EXPECT_TRUE(IsFetchableStoreFile(
      ObjectCsvName(INT64_MIN, UINT64_MAX), &is_wal));
  EXPECT_TRUE(IsFetchableStoreFile(ManifestName(UINT64_MAX), &is_wal));
}

TEST(StoreLayoutTest, FetchNamesResolveToTheWritersPaths) {
  EXPECT_EQ(*FetchableStoreFilePath("d", "j", "CURRENT"), "d/CURRENT");
  EXPECT_EQ(*FetchableStoreFilePath("d", "j", "-7-3.model"),
            "d/-7-3.model");
  // Journal segments come from the store's journal, wherever it is.
  EXPECT_EQ(*FetchableStoreFilePath("d", "j", SegmentFetchName(1, 9)),
            "j/" + SegmentFileName(1, 9));
  EXPECT_EQ(FetchableStoreFilePath("d", "", SegmentFetchName(1, 9))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// Every file a store leaves in its directory is fetchable under its
// relative path and resolves back to itself, except what the store
// never serves: quarantined files and AtomicWriteFile temporaries.
TEST(StoreLayoutTest, EveryFileAStoreWritesIsFetchable) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/store_layout_every_file";
  std::filesystem::remove_all(dir);
  const std::string wal_dir = dir + "/wal";
  {
    MovingObjectStore store(Options(wal_dir));
    ASSERT_TRUE(store.wal_durable());
    Feed(store, 1, 6);
    Feed(store, -2, 6);
    ASSERT_TRUE(store.SaveToDirectory(dir).ok());
    Feed(store, 1, 1);
    ASSERT_TRUE(store.SaveToDirectory(dir).ok());
  }
  // Rot one csv of the newest generation: the load quarantines it and
  // falls back a generation.
  const std::string rotten = dir + "/" + ObjectCsvName(1, 2);
  WriteBytes(rotten, "rotten");
  StatusOr<MovingObjectStore> loaded =
      MovingObjectStore::LoadFromDirectory(dir, Options(wal_dir));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(std::filesystem::exists(dir + "/quarantine/" +
                                      ObjectCsvName(1, 2)));
  Feed(*loaded, -2, 1);
  ASSERT_TRUE(loaded->SaveToDirectory(dir).ok());
  // A temporary left by a write that crashed before its rename.
  WriteBytes(dir + "/" + ObjectCsvName(1, 4) + ".tmp", "half");

  std::set<std::string> snapshot_files;
  size_t refused = 0;
  size_t segments = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        std::filesystem::relative(entry.path(), dir).generic_string();
    const bool never_served = rel.rfind("quarantine/", 0) == 0 ||
                              rel.find("/quarantine/") != std::string::npos ||
                              entry.path().extension() == ".tmp";
    bool is_wal = false;
    EXPECT_EQ(IsFetchableStoreFile(rel, &is_wal), !never_served) << rel;
    if (never_served) {
      ++refused;
      continue;
    }
    if (is_wal) {
      ++segments;
    } else {
      snapshot_files.insert(rel);
    }
    StatusOr<std::string> path = FetchableStoreFilePath(dir, wal_dir, rel);
    ASSERT_TRUE(path.ok()) << rel << ": " << path.status().ToString();
    EXPECT_TRUE(std::filesystem::equivalent(*path, entry.path())) << rel;
  }
  EXPECT_EQ(refused, 2u);
  EXPECT_GT(segments, 0u);

  // The snapshot files are CURRENT and the two kept generations' files,
  // less the quarantined csv.
  std::set<std::string> expected = {kCurrentFileName};
  for (uint64_t gen : {2, 3}) {
    StatusOr<std::string> manifest =
        ReadFileToString(dir + "/" + ManifestName(gen));
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    std::vector<ManifestEntry> entries;
    ASSERT_TRUE(ParseManifest(*manifest, &entries).ok());
    for (const std::string& name : GenerationFiles(gen, entries)) {
      expected.insert(name);
    }
  }
  expected.erase(ObjectCsvName(1, 2));
  EXPECT_EQ(snapshot_files, expected);
}

/// A manifest holding `object_line` under a valid header and checksum,
/// so only the line itself can make it fail.
std::string ManifestWith(const std::string& object_line) {
  std::string manifest = "hpm-store-manifest v2\n" + object_line + "\n";
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n",
                Crc32(manifest));
  return manifest + crc_line;
}

TEST(StoreLayoutTest, ManifestFieldsParseWholeOrNotAtAll) {
  std::vector<ManifestEntry> entries;
  ASSERT_TRUE(
      ParseManifest(ManifestWith("object -7 40 38 1 0a0b0c0d"), &entries)
          .ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, -7);
  EXPECT_EQ(entries[0].history_len, 40u);
  EXPECT_EQ(entries[0].consumed, 38u);
  EXPECT_TRUE(entries[0].has_model);
  EXPECT_EQ(entries[0].csv_crc, 0x0a0b0c0du);

  // A peer's manifest is checksummed, not trusted: a field that does not
  // fit, carries a sign it cannot have or trailing bytes is DataLoss.
  const std::string refused[] = {
      "object 1 18446744073709551616000 38 1 0a0b0c0d",  // 23-digit length
      "object 92233720368547758070000 40 38 1 0a0b0c0d",  // 23-digit id
      "object 1 -5 38 1 0a0b0c0d",                        // signed length
      "object 1 40 38 99999999999 0a0b0c0d",              // has_model
      "object 1 40 38 2 0a0b0c0d",
      "object 1 +40 38 1 0a0b0c0d",
      "object 1 40 38 1 0a0b0c0d trailing",
      "object 1 40x 38 1 0a0b0c0d",
      "object 1 40 38 1 1ffffffff",
      "object 1  40 38 1 0a0b0c0d",
  };
  for (const std::string& line : refused) {
    entries.clear();
    EXPECT_EQ(ParseManifest(ManifestWith(line), &entries).code(),
              StatusCode::kDataLoss)
        << line;
  }
}

}  // namespace
}  // namespace hpm
