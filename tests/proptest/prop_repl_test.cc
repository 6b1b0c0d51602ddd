// Property suite: a replica that bootstrapped at a random point in a
// random workload, synced over a real loopback connection, and was
// optionally killed and restarted, converges to a store observably
// identical to the primary — same fleet, same histories, same
// rejected-report tallies, same predictions — and, because training is
// deterministic and replication re-runs the exact ingest path, its
// serialized snapshot (object files AND trained models) is
// bit-identical to the primary's, byte for byte.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "net/client.h"
#include "net/server.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "server/object_store.h"
#include "server/replication.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

struct ReplOp {
  ObjectId id = 0;
  Point location;
  bool malformed = false;  ///< Sent with a gapped timestamp: rejected.
};

struct ReplCase {
  std::vector<ReplOp> ops;
  /// The replica bootstraps after this many ops.
  size_t bootstrap_point = 0;
  /// Primary SaveToDirectory after this many ops; SIZE_MAX = never.
  size_t save_point = SIZE_MAX;
  /// Kill the replica process after the mid-workload sync and restart it
  /// from its own disk before the final sync.
  bool restart_replica = false;
  int num_shards = 2;
};

ObjectStoreOptions StoreOptions(const ReplCase& c, const std::string& dir) {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 5;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  options.num_shards = c.num_shards;
  if (!dir.empty()) {
    options.durability.wal_dir = dir + "/wal";
    options.durability.sync_policy = WalSyncPolicy::kNone;
    // Tiny segments so realistic cases exercise multi-segment shipping.
    options.durability.max_segment_bytes = 512;
  }
  return options;
}

ReplCase GenCase(Random& rng) {
  ReplCase c;
  const int num_objects = static_cast<int>(1 + rng.Uniform(3));
  std::vector<std::vector<Point>> routes;
  for (int i = 0; i < num_objects; ++i) {
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    routes.push_back(std::move(route));
  }
  std::vector<int> next_step(static_cast<size_t>(num_objects), 0);
  const int num_ops = static_cast<int>(
      rng.Uniform(50ull * static_cast<uint64_t>(num_objects)));
  for (int i = 0; i < num_ops; ++i) {
    const size_t obj = rng.Uniform(static_cast<uint64_t>(num_objects));
    ReplOp op;
    op.id = static_cast<ObjectId>(obj) * 13 + 7;  // spread across shards
    if (rng.Uniform(12) == 0) {
      op.malformed = true;
      op.location = routes[obj][0];
    } else {
      const int step = next_step[obj]++;
      Point p = routes[obj][static_cast<size_t>(step) % kPeriod];
      p.x += rng.Gaussian(0.0, 2.0);
      p.y += rng.Gaussian(0.0, 2.0);
      op.location = p;
    }
    c.ops.push_back(op);
  }
  c.bootstrap_point = c.ops.empty() ? 0 : rng.Uniform(c.ops.size() + 1);
  if (!c.ops.empty() && rng.Uniform(3) != 0) {
    c.save_point = rng.Uniform(c.ops.size() + 1);
  }
  c.restart_replica = rng.Uniform(2) == 0;
  c.num_shards = static_cast<int>(1 + rng.Uniform(4));
  return c;
}

std::string CaseDir(const char* stem) {
  static std::atomic<uint64_t> counter{0};
  const std::string dir = std::string(::testing::TempDir()) + "/" + stem +
                          "_" + std::to_string(counter.fetch_add(1)) + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Apply(MovingObjectStore& store, const ReplOp& op) {
  if (op.malformed) {
    const Timestamp gap =
        static_cast<Timestamp>(store.HistoryLength(op.id)) + 3;
    if (store.ReportLocationAt(op.id, gap, op.location).ok()) {
      return "gapped report unexpectedly accepted";
    }
    return "";
  }
  const Status status = store.ReportLocation(op.id, op.location);
  if (!status.ok()) return "ReportLocation failed: " + status.ToString();
  return "";
}

std::string CompareServing(const MovingObjectStore& primary,
                           const MovingObjectStore& replica) {
  if (primary.ObjectIds() != replica.ObjectIds()) {
    return "fleet membership differs";
  }
  for (const ObjectId id : primary.ObjectIds()) {
    if (primary.HistoryLength(id) != replica.HistoryLength(id)) {
      return "history length differs for object " + std::to_string(id) +
             ": " + std::to_string(primary.HistoryLength(id)) + " vs " +
             std::to_string(replica.HistoryLength(id));
    }
    if (primary.RejectedReports(id) != replica.RejectedReports(id)) {
      return "rejected-report count differs for object " +
             std::to_string(id);
    }
    if (primary.GetPredictor(id).ok() != replica.GetPredictor(id).ok()) {
      return "trained-model presence differs for object " +
             std::to_string(id);
    }
    const Timestamp tq =
        static_cast<Timestamp>(primary.HistoryLength(id)) - 1 + 5;
    const auto expected = primary.PredictLocation(id, tq, 2);
    const auto actual = replica.PredictLocation(id, tq, 2);
    if (expected.ok() != actual.ok()) {
      return "prediction status differs for object " + std::to_string(id);
    }
    if (expected.ok()) {
      if (expected->size() != actual->size()) {
        return "prediction count differs for object " + std::to_string(id);
      }
      for (size_t i = 0; i < expected->size(); ++i) {
        if (!((*expected)[i].location == (*actual)[i].location) ||
            (*expected)[i].score != (*actual)[i].score) {
          return "prediction differs for object " + std::to_string(id);
        }
      }
    }
  }
  return "";
}

std::string ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "cannot open " + path;
  out->clear();
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return "";
}

/// Saves both stores and demands their snapshots carry identical bytes
/// per object file — generation numbers may differ (the two stores have
/// different save histories), so files are matched by their "<id>-"
/// stem, not their full name.
std::string CompareSnapshotBytes(const MovingObjectStore& primary,
                                 const MovingObjectStore& replica) {
  const std::string primary_out = CaseDir("prop_repl_snap_p");
  const std::string replica_out = CaseDir("prop_repl_snap_r");
  Status saved = primary.SaveToDirectory(primary_out);
  if (!saved.ok()) return "primary save: " + saved.ToString();
  saved = replica.SaveToDirectory(replica_out);
  if (!saved.ok()) return "replica save: " + saved.ToString();

  const auto index = [](const std::string& dir,
                        std::map<std::string, std::string>* files)
      -> std::string {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      const std::string ext = entry.path().extension().string();
      if (ext != ".csv" && ext != ".model") continue;
      // "<id>-<gen>.csv" → key "<id>.csv": generation-independent.
      const size_t dash = name.find('-');
      if (dash == std::string::npos) continue;
      std::string contents;
      std::string failure = ReadFileBytes(entry.path().string(), &contents);
      if (!failure.empty()) return failure;
      (*files)[name.substr(0, dash) + ext] = std::move(contents);
    }
    return "";
  };
  std::map<std::string, std::string> want, got;
  std::string failure = index(primary_out, &want);
  if (!failure.empty()) return failure;
  failure = index(replica_out, &got);
  if (!failure.empty()) return failure;

  if (want.size() != got.size()) {
    return "snapshot file sets differ: " + std::to_string(want.size()) +
           " vs " + std::to_string(got.size());
  }
  for (const auto& [key, bytes] : want) {
    const auto it = got.find(key);
    if (it == got.end()) return "replica snapshot is missing " + key;
    if (it->second != bytes) {
      return "snapshot bytes differ for " + key + " (" +
             std::to_string(bytes.size()) + " vs " +
             std::to_string(it->second.size()) + " bytes)";
    }
  }
  std::filesystem::remove_all(primary_out);
  std::filesystem::remove_all(replica_out);
  return "";
}

std::string CheckReplicaConvergesBitIdentically(const ReplCase& input) {
  const std::string primary_dir = CaseDir("prop_repl_p");
  const std::string replica_dir = CaseDir("prop_repl_r");
  std::filesystem::create_directories(primary_dir + "/wal");

  MovingObjectStore primary(StoreOptions(input, primary_dir));
  if (!primary.wal_durable()) return "primary journal failed to open";

  HpmServerOptions server_options;
  server_options.data_dir = primary_dir;
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&primary, server_options);
  if (!server.ok()) return "server: " + server.status().ToString();

  HpmClientOptions client_options;
  client_options.port = (*server)->port();
  HpmClient client(client_options);
  client.set_sleep_fn([](std::chrono::microseconds) {});

  // Workload prefix, then bootstrap, then the rest; the primary may
  // snapshot (and rotate + retire journal) anywhere along the way.
  std::unique_ptr<MovingObjectStore> replica;
  std::unique_ptr<ReplicaHealth> health;
  std::unique_ptr<Replicator> replicator;
  const auto build_replica = [&]() -> std::string {
    replicator.reset();
    replica.reset();
    StatusOr<MovingObjectStore> loaded = MovingObjectStore::LoadFromDirectory(
        replica_dir, StoreOptions(input, ""));
    if (loaded.ok()) {
      replica =
          std::make_unique<MovingObjectStore>(std::move(*loaded));
    } else {
      replica = std::make_unique<MovingObjectStore>(StoreOptions(input, ""));
    }
    health = std::make_unique<ReplicaHealth>();
    ReplicatorOptions options;
    options.data_dir = replica_dir;
    replicator = std::make_unique<Replicator>(
        &client, replica.get(), health.get(), replica->generation(), options);
    const Status caught_up = replicator->CatchUpFromMirror();
    if (!caught_up.ok()) return "catch-up: " + caught_up.ToString();
    return "";
  };

  for (size_t i = 0; i <= input.ops.size(); ++i) {
    if (i == input.bootstrap_point) {
      StatusOr<uint64_t> gen = BootstrapReplica(client, replica_dir);
      if (!gen.ok()) return "bootstrap: " + gen.status().ToString();
      std::string failure = build_replica();
      if (!failure.empty()) return failure;
      const Status synced = replicator->SyncOnce();
      if (!synced.ok()) return "mid sync: " + synced.ToString();
    }
    if (i == input.save_point) {
      const Status saved = primary.SaveToDirectory(primary_dir);
      if (!saved.ok()) return "save: " + saved.ToString();
    }
    if (i == input.ops.size()) break;
    const std::string failure = Apply(primary, input.ops[i]);
    if (!failure.empty()) return failure;
  }

  if (input.restart_replica) {
    std::string failure = build_replica();
    if (!failure.empty()) return failure;
  }
  const Status synced = replicator->SyncOnce();
  if (!synced.ok()) return "final sync: " + synced.ToString();
  if (replicator->resync_required()) return "unexpected resync_required";

  std::string failure = CompareServing(primary, *replica);
  if (!failure.empty()) return failure;
  // Ids whose every report was rejected never join ObjectIds(); their
  // tallies replicate through the journal all the same.
  for (const ReplOp& op : input.ops) {
    if (primary.RejectedReports(op.id) != replica->RejectedReports(op.id)) {
      return "rejected-report count differs for object " +
             std::to_string(op.id);
    }
  }
  failure = CompareSnapshotBytes(primary, *replica);
  if (!failure.empty()) return failure;

  replicator.reset();
  server->reset();
  std::filesystem::remove_all(primary_dir);  // only on success
  std::filesystem::remove_all(replica_dir);
  return "";
}

std::vector<ReplCase> ShrinkCase(const ReplCase& input) {
  std::vector<ReplCase> out;
  for (std::vector<ReplOp>& fewer : proptest::ShrinkVector(input.ops)) {
    ReplCase smaller = input;
    smaller.bootstrap_point = std::min(smaller.bootstrap_point, fewer.size());
    if (smaller.save_point != SIZE_MAX) {
      smaller.save_point = std::min(smaller.save_point, fewer.size());
    }
    smaller.ops = std::move(fewer);
    out.push_back(std::move(smaller));
  }
  return out;
}

TEST(PropReplTest, ReplicaConvergesBitIdenticallyToPrimary) {
  Property<ReplCase> property("repl-replica-vs-primary", GenCase,
                              CheckReplicaConvergesBitIdentically);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 8;
  options.max_shrink_checks = 20;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
