// Write-ahead report journal: crash-safe append-only segments.
//
// The store's generational snapshots (server/store_io) make persistence
// crash-safe only at save boundaries; every report acknowledged since the
// last snapshot would be lost. The WAL closes that window: each shard
// appends a CRC32-framed, length-prefixed record for every report *before*
// the report's epoch-published view swap makes it visible, so an
// acknowledged report is always either in a committed snapshot or in a
// journal segment that replay can recover.
//
// On-disk layout (all inside one flat directory, `wal_dir`):
//   wal-<shard>-<seq>.log    one segment: a header frame followed by
//                            record frames, strictly appended
//   frame                    u32 payload_len | u32 crc32(payload) | payload
//   header payload           "HPMWAL1\0" magic, u32 shard, u64 seq,
//                            u64 base_gen
//   record payload           u8 type, i64 id [, i64 t, f64 x, f64 y]
//
// `base_gen` is the newest snapshot generation that was (being) committed
// when the segment was opened: every record in the segment arrived after
// that generation's per-shard snapshot, so recovery of generation G must
// replay exactly the segments with base_gen >= G (older segments are
// wholly contained in G and are retired after the covering commit).
//
// Failure semantics mirror io/atomic_file: a torn tail (crash mid-append)
// is truncated at the first bad frame and replay continues as if the torn
// record was never acknowledged — which it was not, appends return only
// after the frame (and, per sync policy, the fdatasync) completes. A CRC
// mismatch *before* the tail is real corruption: the reader reports it and
// the store quarantines the segment instead of crashing.

#ifndef HPM_IO_WAL_H_
#define HPM_IO_WAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace hpm {

/// When an appended record becomes durable (fdatasync'd), trading ingest
/// latency for the size of the crash window. docs/ROBUSTNESS.md has the
/// durability matrix.
enum class WalSyncPolicy {
  /// fdatasync after every record: an acknowledged report survives even a
  /// power loss. The slowest policy — one device flush per report.
  kEveryRecord,
  /// fdatasync at most once per `sync_interval` (checked on append, using
  /// the injectable clock): bounds the power-loss window to the interval
  /// while amortising the flush. Process crashes lose nothing either way
  /// (the page cache survives them).
  kInterval,
  /// Never fdatasync explicitly: durable against process crashes only;
  /// power loss may drop the OS-buffered tail.
  kNone,
};

const char* WalSyncPolicyName(WalSyncPolicy policy);

/// One journaled event. Reports carry the full sample; rejected reports
/// journal only the id so the per-object rejection accounting survives a
/// crash too.
struct WalRecord {
  enum class Type : uint8_t {
    kReport = 1,    ///< An acknowledged location report.
    kRejected = 2,  ///< A malformed report counted against the object.
    /// An object's total rejection tally as of a snapshot save. Written
    /// at the head of each post-rotation segment (snapshots don't carry
    /// the tallies), so replay seeds the count before later kRejected
    /// increments land on top. `t` holds the tally.
    kRejectedBaseline = 3,
  };
  Type type = Type::kReport;
  int64_t id = 0;
  /// The object-clock tick the report landed on (== history size before
  /// the append). Replay uses it to skip records already covered by the
  /// loaded snapshot and to refuse gaps from stale segments.
  /// For kRejectedBaseline: the tally.
  int64_t t = 0;
  double x = 0.0;
  double y = 0.0;
};

/// Serialises `record` into a complete frame (length + crc + payload),
/// ready to be appended to a segment. Exposed for tests and hpm_tool.
std::string EncodeWalFrame(const WalRecord& record);

/// Decodes one record payload: an encoded frame less its 8-byte header.
/// kDataLoss unless `payload` is exactly one record of a known type.
Status DecodeWalRecord(std::string_view payload, WalRecord* record);

/// "wal-<shard>-<seq>.log": the name of one journal segment file.
std::string SegmentFileName(int shard, uint64_t seq);

/// The inverse of SegmentFileName: true only for a name it returns for a
/// shard >= 0; refuses signs, leading zeros and out-of-range numbers.
bool ParseSegmentFileName(std::string_view name, int* shard, uint64_t* seq);

/// One segment discovered on disk. `shard`/`seq` parse from the file
/// name; `base_gen` comes from the header frame. When the header is
/// unreadable or fails its checksum `header_ok` is false and `base_gen`
/// is meaningless — the caller quarantines such files.
struct WalSegmentInfo {
  std::string path;
  int shard = 0;
  uint64_t seq = 0;
  uint64_t base_gen = 0;
  bool header_ok = false;
};

/// Every wal-<shard>-<seq>.log under `dir`, sorted by (shard, seq).
/// Missing or unreadable directories yield an empty list.
std::vector<WalSegmentInfo> ListWalSegments(const std::string& dir);

/// A fully scanned segment.
struct WalSegmentContents {
  int shard = 0;
  uint64_t seq = 0;
  uint64_t base_gen = 0;
  /// False when the header frame itself was torn off by a crash during
  /// segment creation; such a segment has no usable records.
  bool header_ok = false;
  /// Records up to the first bad frame (all of them, when the segment is
  /// clean).
  std::vector<WalRecord> records;
  /// Bytes dropped from a torn tail (crash mid-append). 0 when clean.
  uint64_t truncated_bytes = 0;
  /// True when a frame *before* the physical tail failed its checksum —
  /// real corruption, not a crash artifact. `corrupt_offset` is the
  /// byte offset of the bad frame; `records` stops just before it.
  bool corrupt = false;
  uint64_t corrupt_offset = 0;
};

/// Scans one segment. A torn tail is reported via `truncated_bytes` and,
/// when `truncate_torn_tail` is set, physically cut off so later scans
/// see a clean segment. Only unreadable files return an error; torn and
/// corrupt segments return OK with the fields above set — the caller
/// decides to replay / quarantine, never to crash.
StatusOr<WalSegmentContents> ReadWalSegment(const std::string& path,
                                            bool truncate_torn_tail);

struct WalWriterOptions {
  WalSyncPolicy sync_policy = WalSyncPolicy::kEveryRecord;
  /// kInterval only: minimum spacing between fdatasync calls.
  std::chrono::microseconds sync_interval{50000};
  /// kInterval only: time source for the spacing check. Null = steady
  /// clock. Injectable so tests drive the policy deterministically.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// A segment reaching this size rolls over to seq+1 (same base_gen) so
  /// no single file grows unboundedly between snapshots.
  size_t max_segment_bytes = 4 * 1024 * 1024;
};

/// Appender for one shard's segment stream. Not internally synchronised:
/// the store calls it under the owning shard's write mutex, which is the
/// same serialisation the in-memory append uses — journal order therefore
/// equals publication order.
class WalWriter {
 public:
  /// Creates wal-<shard>-<seq>.log (which must not exist), writes and
  /// syncs its header, and fsyncs the directory so the segment itself
  /// survives a crash.
  static StatusOr<std::unique_ptr<WalWriter>> Open(const std::string& dir,
                                                   int shard, uint64_t seq,
                                                   uint64_t base_gen,
                                                   WalWriterOptions options);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record frame and applies the sync policy. `synced`
  /// (optional) reports whether this append flushed the device. On any
  /// error the writer is broken (every later call fails): the store
  /// treats that as the signal to degrade to non-durable serving.
  Status Append(const WalRecord& record, bool* synced);

  /// Explicit fdatasync (fault site "wal/sync").
  Status Sync();

  /// Rolls over to segment seq+1 with `new_base_gen`, syncing and closing
  /// the current segment first. Called at snapshot start, under the shard
  /// lock that also takes the snapshot: everything in older segments is
  /// then covered by the snapshot being written.
  Status Rotate(uint64_t new_base_gen);

  /// Deletes this shard's closed segments whose base_gen < `gen` — they
  /// are wholly contained in every on-disk generation >= `gen`. Unparsable
  /// files are left alone (never delete what cannot be proven covered).
  Status RetireBelow(uint64_t gen);

  int shard() const { return shard_; }
  uint64_t seq() const { return seq_; }
  uint64_t base_gen() const { return base_gen_; }
  const std::string& segment_path() const { return path_; }

 private:
  WalWriter(std::string dir, int shard, uint64_t seq, uint64_t base_gen,
            WalWriterOptions options);

  /// Creates + syncs the current (path_, seq_, base_gen_) segment file.
  Status OpenSegment();
  std::chrono::steady_clock::time_point Now() const;

  std::string dir_;
  int shard_ = 0;
  uint64_t seq_ = 0;
  uint64_t base_gen_ = 0;
  WalWriterOptions options_;
  std::string path_;
  int fd_ = -1;
  size_t segment_bytes_ = 0;
  std::chrono::steady_clock::time_point last_sync_{};
};

}  // namespace hpm

#endif  // HPM_IO_WAL_H_
