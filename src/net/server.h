// HpmServer: the TCP front end of a MovingObjectStore.
//
// Thread-per-connection on the shared ThreadPool pattern the store
// already uses: one accept thread hands each connection to a bounded
// handler pool (TrySubmit); when every handler slot and queue slot is
// taken the connection is answered with kUnavailable + a retry-after
// hint and closed — the accept backlog is bounded instead of queueing
// unboundedly. Each connection then serves framed requests
// (net/protocol.h) until the peer closes, the idle timeout passes, or
// the server stops; every transfer runs under a per-connection I/O
// deadline.
//
// Roles: a kPrimary serves everything, including the replication RPCs
// (kReplState / kReplFetch) that ship the snapshot + journal bytes of
// the store it serves (names and paths from server/store_layout.h). A
// kReplica serves reads only — reports are refused with
// kFailedPrecondition("not primary") — and stamps every reply with the
// generation + staleness its Replicator last reached (the stale-ok
// read contract; docs/ROBUSTNESS.md §replication).

#ifndef HPM_NET_SERVER_H_
#define HPM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "server/object_store.h"

namespace hpm {

/// Replica-side health shared between the Replicator (writer) and the
/// HpmServer stamping replies (reader). All fields are atomics —
/// sampled, never locked.
struct ReplicaHealth {
  /// The primary generation the replica's state reflects (snapshot
  /// bootstrap gen, advanced whenever a sync fully catches up).
  std::atomic<uint64_t> generation{0};
  /// Journal records applied to the local store so far.
  std::atomic<uint64_t> applied_records{0};
  /// Bytes of primary journal not yet mirrored at the last sync.
  std::atomic<uint64_t> lag_bytes{0};
  /// Steady-clock microseconds of the last *successful* sync; negative
  /// until the first one completes.
  std::atomic<int64_t> last_sync_us{-1};

  /// Microseconds since the last successful sync (INT64_MAX before the
  /// first). The staleness bound stamped on replica replies.
  int64_t StalenessMicros() const;

  /// Marks a sync that fully caught up with the primary at `gen`.
  void RecordSync(uint64_t gen, uint64_t lag);
};

struct HpmServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; HpmServer::port() reports the bound port.
  int port = 0;
  ServerRole role = ServerRole::kPrimary;

  /// Connection handler threads (thread-per-connection).
  int handler_threads = 4;
  /// Connections queued behind busy handlers before new ones are
  /// refused with retry-after (the bounded accept backlog).
  size_t max_pending_connections = 16;
  /// listen(2) backlog.
  int listen_backlog = 16;

  /// Per-transfer I/O budget (send or receive of one frame).
  std::chrono::milliseconds io_timeout{5000};
  /// A connection idle longer than this is closed.
  std::chrono::milliseconds idle_timeout{60000};
  /// Suggested client back-off when the handler pool is saturated.
  std::chrono::microseconds busy_retry_after{20000};

  /// Primary only: the directory the store is saved to. When set, the
  /// replication RPCs list and serve its snapshot and the store's own
  /// journal (MovingObjectStore::wal_dir()); empty serves no files.
  std::string data_dir;
  /// Primary: a follower reporting more lag than this flips the
  /// repl.follower_lagging health flag (ingest is never blocked).
  uint64_t follower_lag_warn_bytes = 4 * 1024 * 1024;

  /// Replica only: a reply is stamped stale_degraded once no sync has
  /// succeeded within this window.
  std::chrono::microseconds stale_threshold{2000000};
};

/// A running server. Construction via Start(); destruction stops it.
class HpmServer {
 public:
  /// Binds, starts the accept thread and handler pool. `store` must
  /// outlive the server. `replica_health` is required for kReplica
  /// role (the reply-stamping source) and ignored for kPrimary.
  static StatusOr<std::unique_ptr<HpmServer>> Start(
      MovingObjectStore* store, HpmServerOptions options,
      const ReplicaHealth* replica_health = nullptr);

  ~HpmServer();
  HpmServer(const HpmServer&) = delete;
  HpmServer& operator=(const HpmServer&) = delete;

  int port() const { return listener_.port(); }

  /// Stops accepting, unblocks idle handlers and joins. Idempotent.
  void Stop();

  /// True once a follower has reported lag above the warn threshold
  /// (and not since reported catching back up).
  bool follower_lagging() const {
    return follower_lagging_.load(std::memory_order_relaxed);
  }

  /// The server's own net.* / repl.* counters only
  /// (docs/OBSERVABILITY.md).
  MetricsSnapshot metrics_snapshot() const {
    return metrics_.TakeSnapshot();
  }

  /// The single stats document this deployment exposes: the store's
  /// snapshot with the server's net.*/repl.* rows folded in. This is
  /// what the stats RPC serves.
  MetricsSnapshot combined_metrics_snapshot() const {
    MetricsSnapshot snapshot = store_->metrics_snapshot();
    snapshot.MergeFrom(metrics_.TakeSnapshot());
    return snapshot;
  }

 private:
  HpmServer(MovingObjectStore* store, HpmServerOptions options,
            const ReplicaHealth* replica_health);

  void AcceptLoop();
  void ServeConnection(Socket socket);

  /// Handles one decoded request; returns the full reply payload.
  std::string HandleRequest(const Request& request);
  std::string HandleReplState(const ReplStateRequest& request);
  std::string HandleReplFetch(const ReplFetchRequest& request);

  /// The envelope stamp for this instant (role, generation, staleness).
  ReplyInfo Stamp() const;

  MovingObjectStore* store_;
  HpmServerOptions options_;
  const ReplicaHealth* replica_health_;
  Listener listener_;
  std::unique_ptr<ThreadPool> handlers_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> follower_lagging_{false};

  MetricsRegistry metrics_;
  Counter* connections_;
  Counter* busy_rejected_;
  Counter* requests_;
  Counter* bad_frames_;
  Counter* repl_state_requests_;
  Counter* repl_fetch_requests_;
  Counter* repl_bytes_shipped_;
  Counter* repl_follower_lagging_;
};

}  // namespace hpm

#endif  // HPM_NET_SERVER_H_
