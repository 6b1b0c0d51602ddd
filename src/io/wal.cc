#include "io/wal.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/fault_injection.h"
#include "io/atomic_file.h"
#include "io/eintr.h"

namespace hpm {

namespace {

constexpr char kWalMagic[8] = {'H', 'P', 'M', 'W', 'A', 'L', '1', '\0'};
constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc
constexpr size_t kHeaderPayloadBytes = sizeof(kWalMagic) + 4 + 8 + 8;
// Record payloads are tens of bytes; anything past this bound is a
// corrupt length field, not a large record.
constexpr uint32_t kMaxPayloadBytes = 1 << 20;

std::string FrameFor(const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  bytes::PutU32(&frame, static_cast<uint32_t>(payload.size()));
  bytes::PutU32(&frame, Crc32(payload));
  frame += payload;
  return frame;
}

std::string HeaderPayload(int shard, uint64_t seq, uint64_t base_gen) {
  std::string payload;
  payload.reserve(kHeaderPayloadBytes);
  bytes::PutBytes(&payload, kWalMagic, sizeof(kWalMagic));
  bytes::PutU32(&payload, static_cast<uint32_t>(shard));
  bytes::PutU64(&payload, seq);
  bytes::PutU64(&payload, base_gen);
  return payload;
}

bool ParseHeaderPayload(std::string_view payload, int* shard,
                        uint64_t* seq, uint64_t* base_gen) {
  bytes::Cursor in(payload);
  char magic[sizeof(kWalMagic)];
  uint32_t raw_shard = 0;
  in.Bytes(magic, sizeof(magic));
  in.U32(&raw_shard);
  in.U64(seq);
  in.U64(base_gen);
  *shard = static_cast<int>(raw_shard);
  return in.done() && std::memcmp(magic, kWalMagic, sizeof(magic)) == 0;
}

std::string RecordPayload(const WalRecord& record) {
  std::string payload;
  bytes::PutU8(&payload, static_cast<uint8_t>(record.type));
  bytes::PutI64(&payload, record.id);
  if (record.type == WalRecord::Type::kReport) {
    bytes::PutI64(&payload, record.t);
    bytes::PutF64(&payload, record.x);
    bytes::PutF64(&payload, record.y);
  } else if (record.type == WalRecord::Type::kRejectedBaseline) {
    bytes::PutI64(&payload, record.t);
  }
  return payload;
}

/// What a frame boundary scan found at one offset.
enum class FrameScan { kOk, kTornTail, kCorrupt };

/// Extracts the frame at `offset`. kTornTail means the frame runs past
/// EOF or is the physically last frame with a bad checksum (a crash
/// mid-overwrite looks the same as a crash mid-append); kCorrupt means a
/// provably bad frame with more data after it.
FrameScan ScanFrame(const std::string& content, size_t offset,
                    std::string* payload, size_t* next_offset) {
  const size_t remaining = content.size() - offset;
  bytes::Cursor in(content.data() + offset, remaining);
  uint32_t length = 0;
  uint32_t stored_crc = 0;
  if (!in.U32(&length) || !in.U32(&stored_crc)) return FrameScan::kTornTail;
  if (length > kMaxPayloadBytes) return FrameScan::kCorrupt;
  if (remaining < kFrameHeaderBytes + length) return FrameScan::kTornTail;
  const char* data = content.data() + offset + kFrameHeaderBytes;
  const bool last_frame =
      offset + kFrameHeaderBytes + length == content.size();
  if (Crc32(static_cast<const void*>(data), length) != stored_crc) {
    return last_frame ? FrameScan::kTornTail : FrameScan::kCorrupt;
  }
  payload->assign(data, length);
  *next_offset = offset + kFrameHeaderBytes + length;
  return FrameScan::kOk;
}

}  // namespace

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kEveryRecord:
      return "every_record";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kNone:
      return "none";
  }
  return "unknown";
}

std::string EncodeWalFrame(const WalRecord& record) {
  return FrameFor(RecordPayload(record));
}

Status DecodeWalRecord(std::string_view payload, WalRecord* record) {
  bytes::Cursor in(payload);
  uint8_t type = 0;
  WalRecord decoded;
  in.U8(&type);
  in.I64(&decoded.id);
  decoded.type = static_cast<WalRecord::Type>(type);
  switch (decoded.type) {
    case WalRecord::Type::kReport:
      in.I64(&decoded.t);
      in.F64(&decoded.x);
      in.F64(&decoded.y);
      break;
    case WalRecord::Type::kRejected:
      break;
    case WalRecord::Type::kRejectedBaseline:
      in.I64(&decoded.t);
      break;
    default:
      in.Fail();
  }
  if (!in.done()) return Status::DataLoss("malformed wal record");
  *record = decoded;
  return Status::OK();
}

std::string SegmentFileName(int shard, uint64_t seq) {
  return "wal-" + std::to_string(shard) + "-" + std::to_string(seq) + ".log";
}

bool ParseSegmentFileName(std::string_view name, int* shard,
                          uint64_t* seq) {
  // from_chars reports an out-of-range number instead of wrapping it; the
  // round trip refuses leading zeros and any other suffix.
  constexpr std::string_view kPrefix = "wal-";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* const end = name.data() + name.size();
  int parsed_shard = 0;
  uint64_t parsed_seq = 0;
  const auto dash =
      std::from_chars(name.data() + kPrefix.size(), end, parsed_shard);
  if (dash.ec != std::errc() || parsed_shard < 0 || dash.ptr == end ||
      *dash.ptr != '-' ||
      std::from_chars(dash.ptr + 1, end, parsed_seq).ec != std::errc() ||
      name != SegmentFileName(parsed_shard, parsed_seq)) {
    return false;
  }
  *shard = parsed_shard;
  *seq = parsed_seq;
  return true;
}

std::vector<WalSegmentInfo> ListWalSegments(const std::string& dir) {
  std::vector<WalSegmentInfo> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    WalSegmentInfo info;
    if (!ParseSegmentFileName(entry.path().filename().string(), &info.shard,
                              &info.seq)) {
      continue;
    }
    info.path = entry.path().string();
    // The header frame is all that is read here; a torn or corrupt one
    // leaves header_ok false and the caller quarantines the file.
    const int fd =
        RetryOnEintr([&] { return ::open(info.path.c_str(), O_RDONLY); });
    if (fd >= 0) {
      char buf[kFrameHeaderBytes + kHeaderPayloadBytes] = {};
      const ssize_t n = ReadFullFd(fd, buf, sizeof(buf));
      ::close(fd);
      bytes::Cursor in(buf, sizeof(buf));
      uint32_t length = 0;
      uint32_t stored_crc = 0;
      in.U32(&length);
      in.U32(&stored_crc);
      const std::string_view payload(buf + kFrameHeaderBytes,
                                     kHeaderPayloadBytes);
      int header_shard = 0;
      uint64_t header_seq = 0;
      info.header_ok =
          n == static_cast<ssize_t>(sizeof(buf)) &&
          length == kHeaderPayloadBytes &&
          Crc32(payload.data(), payload.size()) == stored_crc &&
          ParseHeaderPayload(payload, &header_shard, &header_seq,
                             &info.base_gen) &&
          header_shard == info.shard && header_seq == info.seq;
    }
    segments.push_back(std::move(info));
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  return segments;
}

StatusOr<WalSegmentContents> ReadWalSegment(const std::string& path,
                                            bool truncate_torn_tail) {
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();

  WalSegmentContents result;
  size_t offset = 0;
  std::string payload;

  // Header frame first. A torn header means the crash hit segment
  // creation itself: nothing was ever appended, so the whole file is
  // tail.
  size_t after_header = 0;
  switch (ScanFrame(*content, 0, &payload, &after_header)) {
    case FrameScan::kOk: {
      int shard = 0;
      uint64_t seq = 0;
      uint64_t base_gen = 0;
      if (!ParseHeaderPayload(payload, &shard, &seq, &base_gen)) {
        result.corrupt = true;
        result.corrupt_offset = 0;
        return result;
      }
      result.shard = shard;
      result.seq = seq;
      result.base_gen = base_gen;
      result.header_ok = true;
      offset = after_header;
      break;
    }
    case FrameScan::kTornTail:
      result.truncated_bytes = content->size();
      if (truncate_torn_tail && !content->empty()) {
        std::error_code ec;
        std::filesystem::resize_file(path, 0, ec);
      }
      return result;
    case FrameScan::kCorrupt:
      result.corrupt = true;
      result.corrupt_offset = 0;
      return result;
  }

  while (offset < content->size()) {
    size_t next = 0;
    switch (ScanFrame(*content, offset, &payload, &next)) {
      case FrameScan::kOk: {
        WalRecord record;
        if (!DecodeWalRecord(payload, &record).ok()) {
          // A checksummed frame that fails to decode is not a crash
          // artifact — report it as corruption, keep what parsed.
          result.corrupt = true;
          result.corrupt_offset = offset;
          return result;
        }
        result.records.push_back(record);
        offset = next;
        break;
      }
      case FrameScan::kTornTail: {
        result.truncated_bytes = content->size() - offset;
        if (truncate_torn_tail) {
          std::error_code ec;
          std::filesystem::resize_file(path, offset, ec);
        }
        return result;
      }
      case FrameScan::kCorrupt:
        result.corrupt = true;
        result.corrupt_offset = offset;
        return result;
    }
  }
  return result;
}

WalWriter::WalWriter(std::string dir, int shard, uint64_t seq,
                     uint64_t base_gen, WalWriterOptions options)
    : dir_(std::move(dir)),
      shard_(shard),
      seq_(seq),
      base_gen_(base_gen),
      options_(std::move(options)) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

std::chrono::steady_clock::time_point WalWriter::Now() const {
  return options_.clock ? options_.clock()
                        : std::chrono::steady_clock::now();
}

StatusOr<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& dir, int shard, uint64_t seq, uint64_t base_gen,
    WalWriterOptions options) {
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, shard, seq, base_gen, std::move(options)));
  HPM_RETURN_IF_ERROR(writer->OpenSegment());
  return writer;
}

Status WalWriter::OpenSegment() {
  path_ = dir_ + "/" + SegmentFileName(shard_, seq_);
  fd_ = RetryOnEintr([&] {
    return ::open(path_.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND,
                  0644);
  });
  if (fd_ < 0) {
    return Status::DataLoss("cannot create wal segment " + path_ + ": " +
                            std::strerror(errno));
  }
  const std::string frame = FrameFor(HeaderPayload(shard_, seq_, base_gen_));
  const ssize_t written = WriteAllFd(fd_, frame.data(), frame.size());
  if (written != static_cast<ssize_t>(frame.size()) ||
      RetryOnEintr([&] { return ::fdatasync(fd_); }) != 0) {
    const Status status = Status::DataLoss(
        "cannot write wal segment header " + path_ + ": " +
        std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return status;
  }
  // Segment creation is rare; always make the file itself durable so
  // recovery never finds a headerless segment in normal operation.
  FsyncDirectory(dir_);
  segment_bytes_ = frame.size();
  last_sync_ = Now();
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record, bool* synced) {
  if (synced != nullptr) *synced = false;
  if (fd_ < 0) {
    return Status::DataLoss("wal writer for shard " +
                            std::to_string(shard_) + " is broken");
  }
  const std::string frame = EncodeWalFrame(record);
  if (segment_bytes_ + frame.size() > options_.max_segment_bytes &&
      segment_bytes_ > kFrameHeaderBytes + kHeaderPayloadBytes) {
    HPM_RETURN_IF_ERROR(Rotate(base_gen_));
  }

  const Status fault = HPM_FAULT_HIT("wal/append");
  if (!fault.ok()) {
    // Model the failure the site stands for (short write / EIO /
    // ENOSPC): a prefix of the frame reaches the file, then the device
    // gives up — exactly the torn tail replay must truncate.
    const ssize_t ignored = WriteAllFd(fd_, frame.data(), frame.size() / 2);
    (void)ignored;
    ::close(fd_);
    fd_ = -1;
    return fault;
  }

  const ssize_t written = WriteAllFd(fd_, frame.data(), frame.size());
  if (written != static_cast<ssize_t>(frame.size())) {
    const Status status = Status::DataLoss(
        "wal short write to " + path_ + ": " +
        (written < 0 ? std::strerror(errno) : "out of space"));
    ::close(fd_);
    fd_ = -1;
    return status;
  }
  segment_bytes_ += frame.size();

  bool do_sync = false;
  switch (options_.sync_policy) {
    case WalSyncPolicy::kEveryRecord:
      do_sync = true;
      break;
    case WalSyncPolicy::kInterval:
      do_sync = Now() - last_sync_ >= options_.sync_interval;
      break;
    case WalSyncPolicy::kNone:
      break;
  }
  if (do_sync) {
    HPM_RETURN_IF_ERROR(Sync());
    if (synced != nullptr) *synced = true;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::DataLoss("wal writer for shard " +
                            std::to_string(shard_) + " is broken");
  }
  const Status fault = HPM_FAULT_HIT("wal/sync");
  if (!fault.ok()) {
    ::close(fd_);
    fd_ = -1;
    return fault;
  }
  if (RetryOnEintr([&] { return ::fdatasync(fd_); }) != 0) {
    const Status status = Status::DataLoss("wal fdatasync failed for " +
                                           path_ + ": " +
                                           std::strerror(errno));
    ::close(fd_);
    fd_ = -1;
    return status;
  }
  last_sync_ = Now();
  return Status::OK();
}

Status WalWriter::Rotate(uint64_t new_base_gen) {
  const Status fault = HPM_FAULT_HIT("wal/rotate");
  if (!fault.ok()) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    return fault;
  }
  if (fd_ >= 0) {
    // The outgoing segment becomes durable before its successor exists:
    // replay then never sees a gap between segments.
    RetryOnEintr([&] { return ::fdatasync(fd_); });
    ::close(fd_);
    fd_ = -1;
  }
  ++seq_;
  base_gen_ = new_base_gen;
  return OpenSegment();
}

Status WalWriter::RetireBelow(uint64_t gen) {
  HPM_RETURN_IF_ERROR(HPM_FAULT_HIT("wal/retire"));
  for (const WalSegmentInfo& info : ListWalSegments(dir_)) {
    if (info.shard != shard_ || !info.header_ok) continue;
    if (info.seq >= seq_ || info.base_gen >= gen) continue;
    std::remove(info.path.c_str());
  }
  return Status::OK();
}

}  // namespace hpm
