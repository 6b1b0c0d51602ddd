#include "net/server.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "common/retry.h"
#include "io/eintr.h"
#include "io/wal.h"
#include "net/frame.h"
#include "server/store_layout.h"

namespace hpm {

namespace {

/// Accept/idle loops wake this often to check the stop flag; nothing is
/// consumed from the socket between wakes, so slicing loses no bytes.
constexpr std::chrono::milliseconds kStopCheckSlice{50};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int64_t ReplicaHealth::StalenessMicros() const {
  const int64_t last = last_sync_us.load(std::memory_order_relaxed);
  if (last < 0) return INT64_MAX;
  const int64_t now = NowMicros();
  return now > last ? now - last : 0;
}

void ReplicaHealth::RecordSync(uint64_t gen, uint64_t lag) {
  generation.store(gen, std::memory_order_relaxed);
  lag_bytes.store(lag, std::memory_order_relaxed);
  last_sync_us.store(NowMicros(), std::memory_order_relaxed);
}

HpmServer::HpmServer(MovingObjectStore* store, HpmServerOptions options,
                     const ReplicaHealth* replica_health)
    : store_(store),
      options_(std::move(options)),
      replica_health_(replica_health),
      connections_(metrics_.GetCounter("net.connections")),
      busy_rejected_(metrics_.GetCounter("net.busy_rejected")),
      requests_(metrics_.GetCounter("net.requests")),
      bad_frames_(metrics_.GetCounter("net.bad_frames")),
      repl_state_requests_(metrics_.GetCounter("repl.state_requests")),
      repl_fetch_requests_(metrics_.GetCounter("repl.fetch_requests")),
      repl_bytes_shipped_(metrics_.GetCounter("repl.bytes_shipped")),
      repl_follower_lagging_(
          metrics_.GetCounter("repl.follower_lagging")) {}

HpmServer::~HpmServer() { Stop(); }

StatusOr<std::unique_ptr<HpmServer>> HpmServer::Start(
    MovingObjectStore* store, HpmServerOptions options,
    const ReplicaHealth* replica_health) {
  if (options.role == ServerRole::kReplica && replica_health == nullptr) {
    return Status::InvalidArgument(
        "replica server needs a ReplicaHealth to stamp replies from");
  }
  StatusOr<Listener> listener =
      Listener::Bind(options.host, options.port, options.listen_backlog);
  if (!listener.ok()) return listener.status().Annotate("server bind");

  std::unique_ptr<HpmServer> server(
      new HpmServer(store, std::move(options), replica_health));
  server->listener_ = std::move(*listener);
  ThreadPoolOptions pool_options;
  pool_options.num_threads = std::max(1, server->options_.handler_threads);
  pool_options.max_queue_depth = server->options_.max_pending_connections;
  server->handlers_ = std::make_unique<ThreadPool>(pool_options);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

void HpmServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Pool shutdown runs queued connections; each sees stopping_ and
  // returns immediately, and live handlers exit within one stop-check
  // slice.
  handlers_.reset();
  listener_.Close();
}

void HpmServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Status accept_fault = HPM_FAULT_HIT("net/accept");
    StatusOr<Socket> accepted =
        accept_fault.ok() ? listener_.Accept(Deadline::After(kStopCheckSlice))
                          : StatusOr<Socket>(accept_fault);
    if (!accepted.ok()) continue;  // timeout slice or transient error
    connections_->Increment();
    auto conn = std::make_shared<Socket>(std::move(*accepted));
    StatusOr<std::future<void>> submitted = handlers_->TrySubmit(
        [this, conn] { ServeConnection(std::move(*conn)); });
    if (!submitted.ok()) {
      // Bounded backlog: answer the first request-to-be with a busy
      // reply carrying a retry-after hint, then close. The client's
      // RetryWithBackoff floors its next sleep on the hint.
      busy_rejected_->Increment();
      const std::string reply = EncodeReply(
          AttachRetryAfter(Status::Unavailable("server busy"),
                           options_.busy_retry_after),
          Stamp(), "");
      (void)SendFrame(*conn, reply, Deadline::After(options_.io_timeout));
    }
  }
}

void HpmServer::ServeConnection(Socket socket) {
  Deadline idle_deadline = Deadline::After(options_.idle_timeout);
  while (!stopping_.load(std::memory_order_relaxed)) {
    const Status ready = socket.WaitReadable(Deadline::After(kStopCheckSlice));
    if (!ready.ok()) {
      if (ready.code() == StatusCode::kDeadlineExceeded) {
        if (idle_deadline.expired()) return;
        continue;
      }
      return;
    }
    bool clean_eof = false;
    StatusOr<std::string> payload = RecvFrame(
        socket, Deadline::After(options_.io_timeout), &clean_eof);
    if (!payload.ok()) {
      if (!clean_eof) bad_frames_->Increment();
      return;
    }
    requests_->Increment();
    Request request;
    std::string reply;
    if (Status decoded = DecodeRequest(*payload, &request); !decoded.ok()) {
      // A malformed-but-checksummed request means a broken client, not
      // line noise: answer once, then drop the stream.
      bad_frames_->Increment();
      reply = EncodeReply(decoded, Stamp(), "");
      (void)SendFrame(socket, reply, Deadline::After(options_.io_timeout));
      return;
    }
    reply = HandleRequest(request);
    if (!SendFrame(socket, reply, Deadline::After(options_.io_timeout))
             .ok()) {
      return;
    }
    idle_deadline = Deadline::After(options_.idle_timeout);
  }
}

ReplyInfo HpmServer::Stamp() const {
  ReplyInfo info;
  info.role = options_.role;
  if (options_.role == ServerRole::kReplica && replica_health_ != nullptr) {
    info.generation =
        replica_health_->generation.load(std::memory_order_relaxed);
    const int64_t staleness = replica_health_->StalenessMicros();
    info.staleness_us =
        staleness < 0 ? 0 : static_cast<uint64_t>(staleness);
    info.stale_degraded =
        staleness > options_.stale_threshold.count();
  } else {
    info.generation = store_->generation();
    info.staleness_us = 0;  // read-your-writes on the primary
    info.stale_degraded = false;
  }
  return info;
}

std::string HpmServer::HandleRequest(const Request& request) {
  const ReplyInfo stamp = Stamp();
  switch (request.type) {
    case MsgType::kPing:
      return EncodeReply(Status::OK(), stamp, "");
    case MsgType::kReport: {
      if (options_.role != ServerRole::kPrimary) {
        return EncodeReply(
            Status::FailedPrecondition("not primary: reports must go to "
                                       "the primary"),
            stamp, "");
      }
      const Point location{request.report.x, request.report.y};
      const Status reported =
          request.report.t < 0
              ? store_->ReportLocation(request.report.id, location)
              : store_->ReportLocationAt(request.report.id,
                                         request.report.t, location);
      return EncodeReply(reported, Stamp(), "");
    }
    case MsgType::kPredict: {
      const Deadline deadline =
          request.predict.deadline_us > 0
              ? Deadline::After(
                    std::chrono::microseconds(request.predict.deadline_us))
              : Deadline::Infinite();
      StatusOr<std::vector<Prediction>> predictions =
          store_->PredictLocation(request.predict.id, request.predict.tq,
                                  request.predict.k, deadline);
      if (!predictions.ok()) {
        return EncodeReply(predictions.status(), stamp, "");
      }
      return EncodeReply(Status::OK(), stamp,
                         EncodePredictionsBody(*predictions));
    }
    case MsgType::kRange: {
      const Deadline deadline =
          request.range.deadline_us > 0
              ? Deadline::After(
                    std::chrono::microseconds(request.range.deadline_us))
              : Deadline::Infinite();
      const BoundingBox box(Point(request.range.min_x, request.range.min_y),
                            Point(request.range.max_x, request.range.max_y));
      StatusOr<FleetQueryResult> result = store_->PredictiveRangeQuery(
          box, request.range.tq, request.range.k_per_object, deadline);
      if (!result.ok()) return EncodeReply(result.status(), stamp, "");
      return EncodeReply(Status::OK(), stamp, EncodeFleetBody(*result));
    }
    case MsgType::kKnn: {
      const Deadline deadline =
          request.knn.deadline_us > 0
              ? Deadline::After(
                    std::chrono::microseconds(request.knn.deadline_us))
              : Deadline::Infinite();
      StatusOr<FleetQueryResult> result =
          store_->PredictiveNearestNeighbors(
              Point(request.knn.x, request.knn.y), request.knn.tq,
              request.knn.n, deadline);
      if (!result.ok()) return EncodeReply(result.status(), stamp, "");
      return EncodeReply(Status::OK(), stamp, EncodeFleetBody(*result));
    }
    case MsgType::kStats:
      // One document: store rows plus this server's net.*/repl.* rows,
      // so remote `hpm_tool connect … stats` sees the whole deployment.
      return EncodeReply(
          Status::OK(), stamp,
          EncodeStatsBody(combined_metrics_snapshot().ToJson()));
    case MsgType::kReplState:
      return HandleReplState(request.repl_state);
    case MsgType::kReplFetch:
      return HandleReplFetch(request.repl_fetch);
    case MsgType::kReply:
      break;
  }
  return EncodeReply(Status::InvalidArgument("unhandled message type"),
                     stamp, "");
}

std::string HpmServer::HandleReplState(const ReplStateRequest& request) {
  const ReplyInfo stamp = Stamp();
  if (options_.role != ServerRole::kPrimary) {
    return EncodeReply(
        Status::FailedPrecondition("not primary: replication is pull-based "
                                   "from the primary"),
        stamp, "");
  }
  repl_state_requests_->Increment();

  // The degradation contract: a slow follower flips a health flag the
  // operator can watch; ingest never blocks on replication.
  const bool lagging =
      request.follower_lag_bytes > options_.follower_lag_warn_bytes;
  if (lagging && !follower_lagging_.exchange(lagging)) {
    repl_follower_lagging_->Increment();
  } else if (!lagging) {
    follower_lagging_.store(false, std::memory_order_relaxed);
  }

  std::vector<WireSegment> segments;
  if (!options_.data_dir.empty() && store_->wal_enabled()) {
    for (const WalSegmentInfo& info : ListWalSegments(store_->wal_dir())) {
      if (!info.header_ok) continue;
      WireSegment segment;
      segment.shard = info.shard;
      segment.seq = info.seq;
      segment.base_gen = info.base_gen;
      std::error_code ec;
      const auto size = std::filesystem::file_size(info.path, ec);
      if (ec) continue;
      segment.size = static_cast<uint64_t>(size);
      segments.push_back(segment);
    }
  }
  return EncodeReply(Status::OK(), stamp,
                     EncodeReplStateBody(store_->generation(), segments));
}

std::string HpmServer::HandleReplFetch(const ReplFetchRequest& request) {
  const ReplyInfo stamp = Stamp();
  if (options_.role != ServerRole::kPrimary) {
    return EncodeReply(Status::FailedPrecondition("not primary"), stamp, "");
  }
  repl_fetch_requests_->Increment();
  if (const Status fault = HPM_FAULT_HIT("repl/fetch"); !fault.ok()) {
    return EncodeReply(fault, stamp, "");
  }
  if (options_.data_dir.empty()) {
    return EncodeReply(
        Status::FailedPrecondition("server has no data directory"), stamp,
        "");
  }
  const StatusOr<std::string> path = FetchableStoreFilePath(
      options_.data_dir, store_->wal_dir(), request.name);
  if (!path.ok()) return EncodeReply(path.status(), stamp, "");
  const int fd =
      RetryOnEintr([&] { return ::open(path->c_str(), O_RDONLY); });
  if (fd < 0) {
    return EncodeReply(
        Status::NotFound("cannot open " + request.name + ": " +
                         std::strerror(errno)),
        stamp, "");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return EncodeReply(Status::DataLoss("fstat " + request.name), stamp, "");
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  std::string bytes;
  bool eof = true;
  if (request.offset < file_size) {
    const uint32_t cap = std::min(
        request.max_bytes == 0
            ? kReplFetchChunkBytes
            : std::min(request.max_bytes, kReplFetchChunkBytes),
        static_cast<uint32_t>(kMaxNetPayloadBytes / 2));
    const uint64_t want =
        std::min<uint64_t>(cap, file_size - request.offset);
    bytes.resize(want);
    size_t done = 0;
    while (done < want) {
      const ssize_t got = RetryOnEintr([&] {
        return ::pread(fd, bytes.data() + done, want - done,
                       static_cast<off_t>(request.offset + done));
      });
      if (got < 0) {
        ::close(fd);
        return EncodeReply(
            Status::DataLoss("read " + request.name + ": " +
                             std::strerror(errno)),
            stamp, "");
      }
      if (got == 0) break;  // file shrank under us (rotation); stop short
      done += static_cast<size_t>(got);
    }
    bytes.resize(done);
    eof = request.offset + done >= file_size;
  }
  ::close(fd);
  repl_bytes_shipped_->Increment(bytes.size());
  return EncodeReply(Status::OK(), stamp,
                     EncodeReplFetchBody(file_size, eof, bytes));
}

}  // namespace hpm
