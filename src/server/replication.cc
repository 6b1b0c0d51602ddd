#include "server/replication.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/fault_injection.h"
#include "io/atomic_file.h"
#include "io/eintr.h"
#include "io/wal.h"
#include "server/store_layout.h"

namespace hpm {

namespace {

/// The size of a mirror file, 0 when absent.
uint64_t LocalSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

/// Appends `bytes` at the end of `path` (creating it). The mirror is a
/// byte copy of the primary's segment, not a journal we own: plain
/// appends suffice, and a replica crash mid-append just leaves a torn
/// tail that the restart catch-up truncates and re-fetches.
Status AppendBytes(const std::string& path, const std::string& bytes) {
  const int fd = RetryOnEintr([&] {
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  });
  if (fd < 0) {
    return Status::DataLoss("cannot open mirror segment " + path);
  }
  const bool ok =
      WriteAllFd(fd, bytes.data(), bytes.size()) ==
      static_cast<ssize_t>(bytes.size());
  RetryOnEintr([&] { return ::close(fd); });
  if (!ok) {
    return Status::DataLoss("short write to mirror segment " + path);
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint64_t> BootstrapReplica(HpmClient& client,
                                    const std::string& data_dir) {
  std::error_code ec;
  std::filesystem::create_directories(data_dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create replica directory " +
                                   data_dir + ": " + ec.message());
  }

  StatusOr<ReplStateReply> state = client.ReplState(ReplStateRequest{});
  HPM_RETURN_IF_ERROR(state.status().Annotate("bootstrap: primary state"));
  const uint64_t gen = state->generation;
  if (gen == 0) return uint64_t{0};  // primary never saved; journal-only

  const std::string manifest_name = ManifestName(gen);
  std::string manifest;
  HPM_RETURN_IF_ERROR(
      client.FetchFile(manifest_name, &manifest).Annotate("bootstrap"));
  std::vector<ManifestEntry> entries;
  HPM_RETURN_IF_ERROR(ParseManifest(manifest, &entries)
                          .Annotate("bootstrap " + manifest_name));

  // The generation's files end with the manifest itself, already in hand.
  for (const std::string& name : GenerationFiles(gen, entries)) {
    std::string fetched;
    if (name != manifest_name) {
      HPM_RETURN_IF_ERROR(
          client.FetchFile(name, &fetched).Annotate("bootstrap"));
    }
    HPM_RETURN_IF_ERROR(AtomicWriteFile(
        data_dir + "/" + name, name == manifest_name ? manifest : fetched));
  }
  // The commit point, mirroring SaveToDirectory: only once CURRENT
  // lands is the bootstrapped snapshot loadable. A kill anywhere above
  // leaves a directory a re-run simply overwrites.
  HPM_RETURN_IF_ERROR(WriteCurrent(data_dir, gen));
  return gen;
}

Replicator::Replicator(HpmClient* client, MovingObjectStore* store,
                       ReplicaHealth* health, uint64_t floor_gen,
                       ReplicatorOptions options)
    : client_(client),
      store_(store),
      health_(health),
      floor_gen_(floor_gen),
      options_(std::move(options)),
      mirror_dir_(options_.data_dir + "/wal") {
  std::error_code ec;
  std::filesystem::create_directories(mirror_dir_, ec);
}

Replicator::~Replicator() { Stop(); }

Status Replicator::ApplySegment(const std::string& path, int shard,
                                uint64_t seq, uint64_t base_gen,
                                bool truncate_torn_tail) {
  StatusOr<WalSegmentContents> contents =
      ReadWalSegment(path, truncate_torn_tail);
  HPM_RETURN_IF_ERROR(contents.status().Annotate("mirror " + path));
  if (!contents->header_ok) {
    // The header frame itself is still in flight (or torn); nothing to
    // apply yet. The remaining header bytes arrive with the next fetch.
    return Status::OK();
  }
  if (contents->corrupt) {
    // Corruption *before* the tail cannot be a half-fetched frame: the
    // mirrored bytes differ from what the primary served. Cut the
    // mirror back to the bad frame so the next sync re-fetches it; if
    // records already applied came from the cut region the count check
    // below flips resync.
    std::error_code ec;
    std::filesystem::resize_file(path, contents->corrupt_offset, ec);
  }

  size_t& cursor = cursors_[{shard, seq}];
  if (contents->records.size() < cursor) {
    resync_required_.store(true, std::memory_order_relaxed);
    return Status::DataLoss("mirror segment " + path +
                            " lost applied records (corrupt mirror or "
                            "diverged primary): resync required");
  }
  const bool skip_covered = base_gen < floor_gen_;
  while (cursor < contents->records.size()) {
    HPM_INJECT_FAULT("repl/apply");
    if (!skip_covered) {
      StatusOr<bool> applied =
          store_->ApplyReplicated(contents->records[cursor]);
      if (!applied.ok()) {
        if (applied.status().code() == StatusCode::kOutOfRange) {
          resync_required_.store(true, std::memory_order_relaxed);
        }
        return applied.status().Annotate("apply " + path);
      }
    }
    ++cursor;
    applied_records_.fetch_add(1, std::memory_order_relaxed);
  }
  if (contents->corrupt) {
    return Status::Unavailable("mirror segment " + path +
                               " truncated at corrupt frame; re-fetching");
  }
  return Status::OK();
}

Status Replicator::CatchUpFromMirror() {
  for (const WalSegmentInfo& info : ListWalSegments(mirror_dir_)) {
    if (!info.header_ok) continue;  // half-fetched header; sync resumes it
    HPM_RETURN_IF_ERROR(ApplySegment(info.path, info.shard, info.seq,
                                     info.base_gen,
                                     /*truncate_torn_tail=*/true));
  }
  return Status::OK();
}

Status Replicator::SyncSegment(const WireSegment& segment, uint64_t* lag) {
  const std::string path =
      mirror_dir_ + "/" + SegmentFileName(segment.shard, segment.seq);
  uint64_t local = LocalSize(path);

  if (local > segment.size) {
    // The primary's segment shrank: it replayed after a crash and cut a
    // torn tail we had already mirrored. Those bytes were never a
    // complete frame on the primary, so they were never applied here —
    // drop them and re-mirror whatever the primary appended since.
    std::error_code ec;
    std::filesystem::resize_file(path, segment.size, ec);
    if (ec) {
      return Status::DataLoss("cannot truncate mirror segment " + path +
                              ": " + ec.message());
    }
    local = segment.size;
  }

  while (local < segment.size) {
    ReplFetchRequest request;
    request.name = SegmentFetchName(segment.shard, segment.seq);
    request.offset = local;
    request.max_bytes = static_cast<uint32_t>(
        std::min<uint64_t>(kReplFetchChunkBytes, segment.size - local));
    StatusOr<ReplFetchReply> chunk = client_->ReplFetch(request);
    HPM_RETURN_IF_ERROR(chunk.status().Annotate("fetch " + request.name));
    if (chunk->bytes.empty()) {
      // The primary no longer has these bytes (segment retired between
      // the listing and the fetch). Count the gap as lag; the next
      // listing resolves it.
      *lag += segment.size - local;
      return Status::OK();
    }
    HPM_RETURN_IF_ERROR(AppendBytes(path, chunk->bytes));
    local += chunk->bytes.size();
  }

  return ApplySegment(path, segment.shard, segment.seq, segment.base_gen,
                      /*truncate_torn_tail=*/false);
}

Status Replicator::SyncOnce() {
  ReplStateRequest heartbeat;
  heartbeat.follower_lag_bytes =
      health_->lag_bytes.load(std::memory_order_relaxed);
  heartbeat.follower_applied_records =
      applied_records_.load(std::memory_order_relaxed);
  StatusOr<ReplStateReply> state = client_->ReplState(heartbeat);
  HPM_RETURN_IF_ERROR(state.status().Annotate("sync: primary state"));

  uint64_t lag = 0;
  Status result = Status::OK();
  for (const WireSegment& segment : state->segments) {
    Status synced = SyncSegment(segment, &lag);
    if (!synced.ok()) {
      // Keep syncing the other shards' streams — they are independent —
      // but report the failure and skip the health stamp below.
      const uint64_t local = LocalSize(
          mirror_dir_ + "/" + SegmentFileName(segment.shard, segment.seq));
      lag += segment.size > local ? segment.size - local : 0;
      if (result.ok()) result = synced;
    }
  }
  health_->lag_bytes.store(lag, std::memory_order_relaxed);
  health_->applied_records.store(
      applied_records_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  if (result.ok() && lag == 0) {
    // Everything the primary listed is mirrored and applied: the
    // replica now reflects the primary's generation as of this poll.
    health_->RecordSync(state->generation, 0);
  }
  return result;
}

void Replicator::Start() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = false;
  }
  sync_thread_ = std::thread([this] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(stop_mutex_);
        stop_cv_.wait_for(lock, options_.poll_interval,
                          [this] { return stopping_; });
        if (stopping_) return;
      }
      if (resync_required_.load(std::memory_order_relaxed)) continue;
      Status synced = SyncOnce();
      std::lock_guard<std::mutex> lock(status_mutex_);
      last_status_ = std::move(synced);
    }
  });
}

void Replicator::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (sync_thread_.joinable()) sync_thread_.join();
}

Status Replicator::last_status() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return last_status_;
}

}  // namespace hpm
