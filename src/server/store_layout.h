// The names of a store directory's files and which of them make up a
// snapshot generation. server/store_io.cc owns the snapshot layout and
// io/wal.h the journal segment names; replication and the server's
// fetch RPC call these instead of spelling a name themselves.
// docs/ROBUSTNESS.md has the layout.

#ifndef HPM_SERVER_STORE_LAYOUT_H_
#define HPM_SERVER_STORE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/store_types.h"

namespace hpm {

/// The file that names a directory's committed generation.
inline constexpr char kCurrentFileName[] = "CURRENT";

std::string ManifestName(uint64_t gen);
std::string ObjectCsvName(ObjectId id, uint64_t gen);
std::string ObjectModelName(ObjectId id, uint64_t gen);

/// One object line of a manifest.
struct ManifestEntry {
  ObjectId id = 0;
  size_t history_len = 0;
  size_t consumed = 0;
  bool has_model = false;
  /// CRC32 of the object's csv bytes.
  uint32_t csv_crc = 0;
};

/// Parses a manifest and verifies its header and trailing checksum.
/// kDataLoss on any failure; `*entries` is then unspecified.
Status ParseManifest(const std::string& content,
                     std::vector<ManifestEntry>* entries);

/// The files of generation `gen` in the order a save writes them: each
/// object's csv and model (if any), then the manifest; not CURRENT.
std::vector<std::string> GenerationFiles(
    uint64_t gen, const std::vector<ManifestEntry>& entries);

/// Atomically points `dir`'s CURRENT at generation `gen`: the commit
/// point of a save and of a replica bootstrap.
Status WriteCurrent(const std::string& dir, uint64_t gen);

/// The name a replica fetches journal segment (shard, seq) under.
std::string SegmentFetchName(int shard, uint64_t seq);

/// True when `name` is exactly a name the store writes: CURRENT, a
/// manifest, an object file, or a segment's fetch name (sets `*is_wal`).
/// Refuses everything else: paths out of the store, quarantined or
/// temporary files, leading zeros, out-of-range numbers, NULs.
bool IsFetchableStoreFile(const std::string& name, bool* is_wal);

/// Where fetchable `name` lives in a store at `dir` whose journal is in
/// `wal_dir`. kInvalidArgument for a name IsFetchableStoreFile refuses;
/// kNotFound for a journal segment when `wal_dir` is empty.
StatusOr<std::string> FetchableStoreFilePath(const std::string& dir,
                                             const std::string& wal_dir,
                                             const std::string& name);

}  // namespace hpm

#endif  // HPM_SERVER_STORE_LAYOUT_H_
