#include "net/client.h"

#include <thread>
#include <utility>

#include "common/deadline.h"
#include "common/random.h"
#include "net/frame.h"

namespace hpm {

namespace {

/// Transport failures are retryable by definition: the next attempt runs
/// on a fresh connection. The original code (kDataLoss for a torn frame,
/// kDeadlineExceeded for a stalled peer) is kept in the message for
/// diagnosis but must not leak as the call's code — the caller would
/// misread a retryable blip as corruption.
Status Transport(const char* what, const Status& status) {
  return Status::Unavailable(std::string(what) + " failed: " +
                             status.message());
}

}  // namespace

HpmClient::HpmClient(HpmClientOptions options)
    : options_(std::move(options)) {}

StatusOr<Socket> HpmClient::CheckOut() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pool_.empty()) {
      Socket socket = std::move(pool_.back());
      pool_.pop_back();
      return socket;
    }
  }
  return Socket::Connect(options_.host, options_.port,
                         Deadline::After(options_.connect_timeout));
}

void HpmClient::CheckIn(Socket socket) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pool_.size() < options_.max_pooled_connections) {
    pool_.push_back(std::move(socket));
  }
  // Else: dropped; the Socket destructor closes it.
}

size_t HpmClient::pooled_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pool_.size();
}

StatusOr<HpmClient::Envelope> HpmClient::CallOnce(
    const std::string& request) {
  StatusOr<Socket> socket = CheckOut();
  if (!socket.ok()) return Transport("connect", socket.status());

  if (Status sent = SendFrame(*socket, request,
                              Deadline::After(options_.io_timeout));
      !sent.ok()) {
    return Transport("send", sent);
  }
  // The reply cannot be there yet, so wait before the first recv rather
  // than try it.
  const Deadline reply_deadline = Deadline::After(options_.io_timeout);
  if (Status ready = socket->WaitReadable(reply_deadline); !ready.ok()) {
    return Transport("recv", ready);
  }
  StatusOr<std::string> payload = RecvFrame(*socket, reply_deadline);
  if (!payload.ok()) {
    // Includes the pooled-connection race: the server idle-closed a
    // connection we just checked out — clean EOF, retry reconnects.
    return Transport("recv", payload.status());
  }

  ReplyInfo info;
  std::string body;
  Status transported;
  if (Status valid = DecodeReply(*payload, &info, &body, &transported);
      !valid.ok()) {
    return Transport("reply decode", valid);
  }
  if (!transported.ok()) {
    // A well-formed error reply: the server's own status, verbatim, so
    // retry-after hints reach RetryWithBackoff untouched. The stream may
    // be mid-close (busy rejections close it) — don't pool it.
    return transported;
  }
  CheckIn(std::move(*socket));
  return Envelope{info, std::move(body)};
}

StatusOr<HpmClient::Envelope> HpmClient::Call(const std::string& request) {
  const uint64_t seq = call_seq_.fetch_add(1, std::memory_order_relaxed);
  // Per-call jitter stream: deterministic given the seed, decorrelated
  // across concurrent calls.
  Random rng(options_.retry_seed ^ (seq * 0x2545F4914F6CDD1Dull + 1));
  const auto sleep = [this](std::chrono::microseconds d) {
    if (sleep_fn_) {
      sleep_fn_(d);
    } else {
      std::this_thread::sleep_for(d);
    }
  };
  return RetryWithBackoff(
      options_.retry, rng, [&] { return CallOnce(request); }, sleep);
}

StatusOr<ReplyInfo> HpmClient::Ping() {
  StatusOr<Envelope> env = Call(EncodePing());
  HPM_RETURN_IF_ERROR(env.status());
  return env->info;
}

StatusOr<ReplyInfo> HpmClient::Report(const ReportRequest& request) {
  StatusOr<Envelope> env = Call(EncodeReport(request));
  HPM_RETURN_IF_ERROR(env.status());
  return env->info;
}

StatusOr<PredictReply> HpmClient::Predict(const PredictRequest& request) {
  StatusOr<Envelope> env = Call(EncodePredict(request));
  HPM_RETURN_IF_ERROR(env.status());
  PredictReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(DecodePredictionsBody(env->body, &reply.predictions));
  return reply;
}

StatusOr<FleetReply> HpmClient::Range(const RangeRequest& request) {
  StatusOr<Envelope> env = Call(EncodeRange(request));
  HPM_RETURN_IF_ERROR(env.status());
  FleetReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(DecodeFleetBody(env->body, &reply.result));
  return reply;
}

StatusOr<FleetReply> HpmClient::Knn(const KnnRequest& request) {
  StatusOr<Envelope> env = Call(EncodeKnn(request));
  HPM_RETURN_IF_ERROR(env.status());
  FleetReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(DecodeFleetBody(env->body, &reply.result));
  return reply;
}

StatusOr<StatsReply> HpmClient::Stats() {
  StatusOr<Envelope> env = Call(EncodeStats());
  HPM_RETURN_IF_ERROR(env.status());
  StatsReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(DecodeStatsBody(env->body, &reply.json));
  return reply;
}

StatusOr<ReplStateReply> HpmClient::ReplState(
    const ReplStateRequest& request) {
  StatusOr<Envelope> env = Call(EncodeReplState(request));
  HPM_RETURN_IF_ERROR(env.status());
  ReplStateReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(
      DecodeReplStateBody(env->body, &reply.generation, &reply.segments));
  return reply;
}

StatusOr<ReplFetchReply> HpmClient::ReplFetch(
    const ReplFetchRequest& request) {
  StatusOr<Envelope> env = Call(EncodeReplFetch(request));
  HPM_RETURN_IF_ERROR(env.status());
  ReplFetchReply reply;
  reply.info = env->info;
  HPM_RETURN_IF_ERROR(DecodeReplFetchBody(env->body, &reply.file_size,
                                          &reply.eof, &reply.bytes));
  return reply;
}

Status HpmClient::FetchFile(const std::string& name, std::string* contents) {
  contents->clear();
  for (;;) {
    ReplFetchRequest request;
    request.name = name;
    request.offset = contents->size();
    request.max_bytes = kReplFetchChunkBytes;
    StatusOr<ReplFetchReply> chunk = ReplFetch(request);
    HPM_RETURN_IF_ERROR(chunk.status().Annotate("fetch " + name));
    contents->append(chunk->bytes);
    if (chunk->eof) return Status::OK();
    if (chunk->bytes.empty()) {
      // No progress and no EOF would loop forever — the file shrank
      // under us (e.g. a retired journal segment) or the server is
      // confused; either way the transfer must restart.
      return Status::Unavailable("fetch " + name + ": stalled at offset " +
                                 std::to_string(contents->size()));
    }
  }
}

}  // namespace hpm
