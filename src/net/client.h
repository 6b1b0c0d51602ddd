// HpmClient: the client side of the HPM wire protocol.
//
// Wraps Socket + frame + protocol into typed calls with a pooled set of
// connections and retry. Transport failures — connect refused, torn
// frames, a server that vanished mid-reply — are mapped to kUnavailable
// and retried under RetryWithBackoff with full jitter; a *transported*
// error (the Status the server put in the reply envelope) is returned
// as-is, message intact, so server-supplied retry-after hints flow
// straight into the client's backoff floor.
//
// Thread-safe: calls may run concurrently; the connection pool is
// shared and bounded.

#ifndef HPM_NET_CLIENT_H_
#define HPM_NET_CLIENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace hpm {

struct HpmClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Budget for establishing one connection.
  std::chrono::milliseconds connect_timeout{2000};
  /// Budget for one frame transfer (send or receive).
  std::chrono::milliseconds io_timeout{5000};
  /// Idle connections kept for reuse.
  size_t max_pooled_connections = 4;
  /// Backoff for transport failures and kUnavailable replies. Full
  /// jitter by default: a fleet of clients bounced by the same busy
  /// server must not retry in lockstep.
  RetryPolicy retry = [] {
    RetryPolicy p;
    p.full_jitter = true;
    return p;
  }();
  /// Seed for the jitter stream (deterministic in tests).
  uint64_t retry_seed = 0x9e3779b97f4a7c15ull;
};

class HpmClient {
 public:
  explicit HpmClient(HpmClientOptions options);

  HpmClient(const HpmClient&) = delete;
  HpmClient& operator=(const HpmClient&) = delete;

  StatusOr<ReplyInfo> Ping();
  /// Primary only; a replica answers kFailedPrecondition.
  StatusOr<ReplyInfo> Report(const ReportRequest& request);
  StatusOr<PredictReply> Predict(const PredictRequest& request);
  StatusOr<FleetReply> Range(const RangeRequest& request);
  StatusOr<FleetReply> Knn(const KnnRequest& request);
  StatusOr<StatsReply> Stats();
  StatusOr<ReplStateReply> ReplState(const ReplStateRequest& request);
  StatusOr<ReplFetchReply> ReplFetch(const ReplFetchRequest& request);

  /// Downloads one store file, kReplFetchChunkBytes per ReplFetch.
  Status FetchFile(const std::string& name, std::string* contents);

  /// Test hook: replaces the real sleep between retries.
  void set_sleep_fn(std::function<void(std::chrono::microseconds)> fn) {
    sleep_fn_ = std::move(fn);
  }

  /// Idle pooled connections (observability + tests).
  size_t pooled_connections() const;

 private:
  /// A decoded reply envelope whose transported status was OK.
  struct Envelope {
    ReplyInfo info;
    std::string body;
  };

  /// One attempt: checkout/connect, send, receive, decode. Transport
  /// failures come back as kUnavailable (retryable); transported server
  /// errors come back verbatim.
  StatusOr<Envelope> CallOnce(const std::string& request);
  /// CallOnce under RetryWithBackoff.
  StatusOr<Envelope> Call(const std::string& request);

  StatusOr<Socket> CheckOut();
  void CheckIn(Socket socket);

  HpmClientOptions options_;
  std::function<void(std::chrono::microseconds)> sleep_fn_;

  mutable std::mutex mutex_;  // guards pool_
  std::vector<Socket> pool_;
  std::atomic<uint64_t> call_seq_{0};
};

}  // namespace hpm

#endif  // HPM_NET_CLIENT_H_
