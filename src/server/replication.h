// Primary/replica replication: a follower mirrors the primary's
// generational snapshot plus the byte-exact tail of its journal
// segments, and applies the journal records to a local store.
//
// The replica state machine (docs/ROBUSTNESS.md §replication):
//
//   bootstrap   BootstrapReplica fetches the primary's current snapshot
//               generation G: the manifest, which must pass the store's
//               own checksum check (server/store_layout.h), then exactly
//               the files it lists, then CURRENT *last* (the same
//               commit-point discipline as a local save: a crash or a
//               refused manifest mid-bootstrap leaves no CURRENT, so a
//               reload finds nothing half-loaded).
//   catch-up    The replica loads the snapshot with no journal writer
//               attached, then CatchUpFromMirror re-applies every
//               mirrored journal record (idempotent: covered records
//               are skipped, rejection baselines assign-last-wins).
//   steady      SyncOnce polls the primary: heartbeat + segment
//               listing, per-segment truncate-if-shorter (the primary
//               replayed a torn tail after a crash) or fetch-if-longer
//               (chunked byte range appends into the local mirror),
//               then applies the newly parseable records in (shard,
//               seq) order through MovingObjectStore::ApplyReplicated.
//
// Because training is deterministic and ApplyReplicated re-runs the
// exact live-ingest path, a replica that has applied the same records
// holds a bit-identical model to the primary — the repl prop suite
// asserts this byte-for-byte on the serialized models.
//
// A detected divergence (a journal gap the primary can no longer
// serve, a mirror segment corrupt before its tail) flips
// resync_required(): the replica keeps serving stale reads and the
// operator re-bootstraps. Sync failures never crash the replica — they
// just freeze its staleness stamp until the primary is reachable again.

#ifndef HPM_SERVER_REPLICATION_H_
#define HPM_SERVER_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/status.h"
#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"

namespace hpm {

/// Copies the primary's current snapshot generation into `data_dir`
/// (creating it), writing CURRENT last.
/// Returns the bootstrapped generation (0 when the primary has never
/// saved — the replica then starts from an empty store and pure journal
/// replay). kDataLoss, with no CURRENT written, when the manifest fails
/// its checksum. Safe to re-run over a half-bootstrapped directory.
StatusOr<uint64_t> BootstrapReplica(HpmClient& client,
                                    const std::string& data_dir);

struct ReplicatorOptions {
  /// The replica's store directory; the journal mirror lives in
  /// <data_dir>/wal.
  std::string data_dir;
  /// Steady-state poll spacing.
  std::chrono::milliseconds poll_interval{200};
};

class Replicator {
 public:
  /// `client` talks to the primary; `store` is the replica's local
  /// store (loaded with *no* journal writer — the mirror belongs to the
  /// primary's byte stream); `health` is the stamp the serving replica
  /// reads. All must outlive the Replicator. `floor_gen` is the
  /// generation the local snapshot covers (BootstrapReplica's return /
  /// the loaded generation): mirror segments below it are wholly
  /// contained in the snapshot and are skipped.
  Replicator(HpmClient* client, MovingObjectStore* store,
             ReplicaHealth* health, uint64_t floor_gen,
             ReplicatorOptions options);
  ~Replicator();
  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Replays every record already in the local mirror (replica
  /// restart). Truncates torn mirror tails — the half-fetched bytes are
  /// re-fetched from the primary on the next sync. Must run before
  /// Start().
  Status CatchUpFromMirror();

  /// One full poll: heartbeat + listing, mirror, apply, stamp health.
  Status SyncOnce();

  /// Background SyncOnce every poll_interval. Stop() (and the
  /// destructor) joins. Sync errors are recorded, never fatal.
  void Start();
  void Stop();

  /// The replica has diverged from what the primary can serve; syncing
  /// has stopped and the operator must re-bootstrap.
  bool resync_required() const {
    return resync_required_.load(std::memory_order_relaxed);
  }
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_relaxed);
  }
  /// The last SyncOnce error (OK when the last sync succeeded).
  Status last_status() const;

 private:
  /// Syncs one listed segment; adds its unmirrored bytes to *lag.
  Status SyncSegment(const WireSegment& segment, uint64_t* lag);
  /// Applies records [cursor..) of a scanned mirror segment.
  Status ApplySegment(const std::string& path, int shard, uint64_t seq,
                      uint64_t base_gen, bool truncate_torn_tail);

  HpmClient* client_;
  MovingObjectStore* store_;
  ReplicaHealth* health_;
  const uint64_t floor_gen_;
  ReplicatorOptions options_;
  std::string mirror_dir_;

  /// Records already applied per (shard, seq) mirror segment.
  std::map<std::pair<int, uint64_t>, size_t> cursors_;

  std::atomic<bool> resync_required_{false};
  std::atomic<uint64_t> applied_records_{0};

  mutable std::mutex status_mutex_;
  Status last_status_;

  std::thread sync_thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
};

}  // namespace hpm

#endif  // HPM_SERVER_REPLICATION_H_
