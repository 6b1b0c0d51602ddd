// Directory persistence for MovingObjectStore — generational, crash-safe.
// Owns the snapshot layout that server/store_layout.h declares.
//
// Layout (docs/ROBUSTNESS.md has the recovery semantics):
//   <dir>/CURRENT            "MANIFEST-<gen>\n"; atomically swapped *last*,
//                            so it always names a fully written generation
//   <dir>/MANIFEST-<gen>     header "hpm-store-manifest v2", one line per
//                            object:
//                            "object <id> <len> <consumed> <model?> <crc>"
//                            (crc = CRC32 of the object's csv bytes, hex),
//                            and a trailing "crc32 <hex>" line over every
//                            preceding byte
//   <dir>/<id>-<gen>.csv     the object's full reported history
//   <dir>/<id>-<gen>.model   the trained HybridPredictor (when present;
//                            self-validating via its own CRC footer)
//   <dir>/quarantine/        corrupt files are moved here on load, so a
//                            failed generation can be inspected without
//                            being retried forever (bounded: oldest files
//                            are evicted past DurabilityOptions::
//                            max_quarantine_files)
//
// When ObjectStoreOptions::durability.wal_dir is set (conventionally
// <dir>/wal), ingest additionally journals every acknowledged report:
//   <wal_dir>/wal-<shard>-<seq>.log   CRC32-framed report journal segments
//                                     (io/wal.h has the frame format)
//   <wal_dir>/quarantine/             corrupt segments, same bound
// A save rotates every shard's journal to a new segment stamped with the
// new generation *inside the same lock hold that snapshots the shard*, so
// pre-rotation segments are subsets of the snapshot; a load replays the
// segments stamped at-or-after the loaded generation on top of it and
// only then reattaches writers. Segments older than the gen-1 fallback
// target are retired after the CURRENT swap.
//
// Every file is written via AtomicWriteFile (temp + fsync + rename), and a
// save becomes visible only when CURRENT is swapped; a crash anywhere
// before that leaves the previous generation fully intact. Loads verify
// checksums, quarantine whatever fails, and fall back generation by
// generation until one verifies; a model file of another format version
// stops the load instead (FailedPrecondition, nothing quarantined).
// Journal tails torn by a crash are truncated at the first bad frame and
// replay continues.

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/wal.h"
#include "server/object_store.h"
#include "server/store_layout.h"

namespace hpm {

namespace {

constexpr char kManifestHeader[] = "hpm-store-manifest v2";
constexpr std::string_view kWalFetchPrefix = "wal/";
constexpr uint64_t kStoreIoRetrySeed = 0x73746f72655f696fULL;  // "store_io"

std::string CurrentPath(const std::string& dir) {
  return dir + "/" + kCurrentFileName;
}

std::string ManifestPath(const std::string& dir, uint64_t gen) {
  return dir + "/" + ManifestName(gen);
}

std::string CsvPath(const std::string& dir, ObjectId id, uint64_t gen) {
  return dir + "/" + ObjectCsvName(id, gen);
}

std::string ModelPath(const std::string& dir, ObjectId id, uint64_t gen) {
  return dir + "/" + ObjectModelName(id, gen);
}

// from_chars reports an out-of-range number instead of wrapping it; the
// name parsers then accept only the exact name the writer makes.

/// Parses the generation number out of a "MANIFEST-<gen>" name.
bool ParseManifestName(std::string_view name, uint64_t* gen) {
  constexpr std::string_view kPrefix = "MANIFEST-";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  uint64_t value = 0;
  const char* const end = name.data() + name.size();
  if (std::from_chars(name.data() + kPrefix.size(), end, value).ec !=
          std::errc() ||
      name != ManifestName(value)) {
    return false;
  }
  *gen = value;
  return true;
}

/// Parses all of `text` as one number in `base`: false on an empty or
/// out-of-range number, a sign on an unsigned type and trailing bytes.
template <typename T>
bool ParseWhole(std::string_view text, T* value, int base = 10) {
  const char* const end = text.data() + text.size();
  const auto parsed = std::from_chars(text.data(), end, *value, base);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// The space-separated fields of a manifest line, empty ones included.
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  for (size_t start = 0;;) {
    const size_t space = line.find(' ', start);
    fields.push_back(line.substr(start, space - start));
    if (space == std::string_view::npos) return fields;
    start = space + 1;
  }
}

/// True when `name` is an object's csv or model file of some generation.
bool IsObjectFileName(std::string_view name) {
  const char* const end = name.data() + name.size();
  ObjectId id = 0;
  uint64_t gen = 0;
  const auto id_end = std::from_chars(name.data(), end, id);
  if (id_end.ec != std::errc() || id_end.ptr == end || *id_end.ptr != '-' ||
      std::from_chars(id_end.ptr + 1, end, gen).ec != std::errc()) {
    return false;
  }
  return name == ObjectCsvName(id, gen) || name == ObjectModelName(id, gen);
}

/// All generations with a manifest file in `dir`, descending.
std::vector<uint64_t> ListGenerations(const std::string& dir) {
  std::vector<uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (ParseManifestName(entry.path().filename().string(), &gen)) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end(), std::greater<uint64_t>());
  return gens;
}

/// The generation CURRENT points at, if CURRENT exists and parses.
bool ReadCurrentGeneration(const std::string& dir, uint64_t* gen) {
  StatusOr<std::string> content = ReadFileToString(CurrentPath(dir));
  if (!content.ok()) return false;
  std::string name = *content;
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  return ParseManifestName(name, gen);
}

/// Moves a corrupt file into <dir>/quarantine/ (best effort), then
/// enforces the retention cap by evicting the oldest quarantined files
/// (by modification time; `max_files` == 0 means unbounded). Returns
/// whether the file was actually moved.
bool QuarantineFile(const std::string& dir, const std::string& path,
                    size_t max_files) {
  std::error_code ec;
  const std::filesystem::path source(path);
  if (!std::filesystem::exists(source, ec)) return false;
  const std::filesystem::path target_dir =
      std::filesystem::path(dir) / "quarantine";
  std::filesystem::create_directories(target_dir, ec);
  std::filesystem::rename(source, target_dir / source.filename(), ec);
  const bool moved = !ec;

  if (max_files > 0) {
    struct Quarantined {
      std::filesystem::file_time_type mtime;
      std::filesystem::path path;
    };
    std::vector<Quarantined> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(target_dir, ec)) {
      std::error_code entry_ec;
      if (!entry.is_regular_file(entry_ec)) continue;
      files.push_back({entry.last_write_time(entry_ec), entry.path()});
    }
    if (files.size() > max_files) {
      std::sort(files.begin(), files.end(),
                [](const Quarantined& a, const Quarantined& b) {
                  return a.mtime < b.mtime;
                });
      for (size_t i = 0; i + max_files < files.size(); ++i) {
        std::filesystem::remove(files[i].path, ec);
      }
    }
  }
  return moved;
}

/// Reads a file through the load-side fault site with transient-failure
/// retry.
StatusOr<std::string> ReadStoreFile(const std::string& path, Random& rng) {
  return RetryWithBackoff(
      RetryPolicy{}, rng, [&]() -> StatusOr<std::string> {
        HPM_INJECT_FAULT("store/load_read");
        return ReadFileToString(path);
      });
}

}  // namespace

std::string ManifestName(uint64_t gen) {
  return "MANIFEST-" + std::to_string(gen);
}

std::string ObjectCsvName(ObjectId id, uint64_t gen) {
  return std::to_string(id) + "-" + std::to_string(gen) + ".csv";
}

std::string ObjectModelName(ObjectId id, uint64_t gen) {
  return std::to_string(id) + "-" + std::to_string(gen) + ".model";
}

Status ParseManifest(const std::string& content,
                     std::vector<ManifestEntry>* entries) {
  // The trailing line must be "crc32 <hex>" over every byte before it.
  const size_t last_newline = content.size() >= 2
                                  ? content.rfind('\n', content.size() - 2)
                                  : std::string::npos;
  if (content.empty() || content.back() != '\n' ||
      last_newline == std::string::npos) {
    return Status::DataLoss("manifest missing checksum line");
  }
  const std::vector<std::string_view> crc_fields = SplitFields(
      std::string_view(content).substr(last_newline + 1,
                                       content.size() - last_newline - 2));
  uint32_t stored_crc = 0;
  if (crc_fields.size() != 2 || crc_fields[0] != "crc32" ||
      !ParseWhole(crc_fields[1], &stored_crc, 16)) {
    return Status::DataLoss("manifest missing checksum line");
  }
  if (Crc32(content.data(), last_newline + 1) != stored_crc) {
    return Status::DataLoss("manifest checksum mismatch");
  }

  size_t pos = 0;
  bool header_seen = false;
  while (pos <= last_newline) {
    const size_t eol = content.find('\n', pos);
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (!header_seen) {
      if (line != kManifestHeader) {
        return Status::DataLoss("bad manifest header: " + line);
      }
      header_seen = true;
      continue;
    }
    // A bootstrapping replica parses its peer's manifest, so each field
    // must parse whole and fit its type.
    const std::vector<std::string_view> fields = SplitFields(line);
    ManifestEntry entry;
    if (fields.size() != 6 || fields[0] != "object" ||
        !ParseWhole(fields[1], &entry.id) ||
        !ParseWhole(fields[2], &entry.history_len) ||
        !ParseWhole(fields[3], &entry.consumed) ||
        (fields[4] != "0" && fields[4] != "1") ||
        !ParseWhole(fields[5], &entry.csv_crc, 16)) {
      return Status::DataLoss("malformed manifest line: " + line);
    }
    entry.has_model = fields[4] == "1";
    entries->push_back(entry);
  }
  return Status::OK();
}

std::vector<std::string> GenerationFiles(
    uint64_t gen, const std::vector<ManifestEntry>& entries) {
  std::vector<std::string> files;
  for (const ManifestEntry& entry : entries) {
    files.push_back(ObjectCsvName(entry.id, gen));
    if (entry.has_model) files.push_back(ObjectModelName(entry.id, gen));
  }
  files.push_back(ManifestName(gen));
  return files;
}

Status WriteCurrent(const std::string& dir, uint64_t gen) {
  return AtomicWriteFile(CurrentPath(dir), ManifestName(gen) + "\n");
}

std::string SegmentFetchName(int shard, uint64_t seq) {
  return std::string(kWalFetchPrefix) + SegmentFileName(shard, seq);
}

bool IsFetchableStoreFile(const std::string& name, bool* is_wal) {
  *is_wal = false;
  uint64_t gen = 0;
  if (name == kCurrentFileName || ParseManifestName(name, &gen) ||
      IsObjectFileName(name)) {
    return true;
  }
  const std::string_view view = name;
  int shard = 0;
  uint64_t seq = 0;
  *is_wal = view.substr(0, kWalFetchPrefix.size()) == kWalFetchPrefix &&
            ParseSegmentFileName(view.substr(kWalFetchPrefix.size()),
                                 &shard, &seq);
  return *is_wal;
}

StatusOr<std::string> FetchableStoreFilePath(const std::string& dir,
                                             const std::string& wal_dir,
                                             const std::string& name) {
  bool is_wal = false;
  if (!IsFetchableStoreFile(name, &is_wal)) {
    return Status::InvalidArgument("not a fetchable store file: " + name);
  }
  if (!is_wal) return dir + "/" + name;
  if (wal_dir.empty()) return Status::NotFound("no journal: " + name);
  return wal_dir + "/" + name.substr(kWalFetchPrefix.size());
}

Status MovingObjectStore::SaveToDirectory(
    const std::string& directory) const {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory " + directory +
                                   ": " + ec.message());
  }

  // The new generation is one past everything visible in the directory,
  // whether or not CURRENT points at the newest manifest.
  uint64_t gen = 1;
  const std::vector<uint64_t> existing = ListGenerations(directory);
  if (!existing.empty()) gen = existing.front() + 1;
  uint64_t current_gen = 0;
  if (ReadCurrentGeneration(directory, &current_gen) && current_gen >= gen) {
    gen = current_gen + 1;
  }

  Random retry_rng(kStoreIoRetrySeed ^ gen);
  const RetryPolicy policy;

  // Snapshot shard by shard, rotating each shard's journal to a segment
  // stamped with the new generation *inside the same lock hold*: every
  // record in the pre-rotation segments is therefore contained in this
  // snapshot, and every report accepted after the rotation lands in a
  // segment that recovery replays on top of it. A rotation failure
  // degrades durability (the save itself still proceeds).
  struct ObjectSnapshot {
    ObjectId id = 0;
    Trajectory history;
    std::shared_ptr<const HybridPredictor> predictor;
    size_t consumed = 0;
  };
  std::vector<ObjectSnapshot> snapshot;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.write_mutex);
    if (shard.wal != nullptr &&
        !wal_disabled_->load(std::memory_order_relaxed)) {
      if (Status rotated = shard.wal->Rotate(gen); !rotated.ok()) {
        DisableWal(rotated.Annotate("wal rotate"));
      } else {
        // Snapshots don't carry rejection tallies; seed the new segment
        // with each object's total so replay-from-this-generation starts
        // from the right count before later kRejected increments.
        for (const auto& [id, count] : shard.rejected_reports) {
          if (count == 0) continue;
          WalRecord baseline;
          baseline.type = WalRecord::Type::kRejectedBaseline;
          baseline.id = id;
          baseline.t = static_cast<int64_t>(count);
          if (Status appended = shard.wal->Append(baseline, nullptr);
              !appended.ok()) {
            DisableWal(appended.Annotate("wal baseline"));
            break;
          }
        }
      }
    }
    for (const auto& [id, record] : shard.records) {
      snapshot.push_back({id, record->history, record->predictor,
                          record->consumed_samples});
    }
  }
  // Ascending by id, matching the pre-shard manifest order.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const ObjectSnapshot& a, const ObjectSnapshot& b) {
              return a.id < b.id;
            });

  std::string manifest = kManifestHeader;
  manifest += '\n';
  for (const ObjectSnapshot& object : snapshot) {
    const ObjectId id = object.id;
    const bool has_model = object.predictor != nullptr;
    const std::string csv = FormatTrajectoryCsv(object.history);

    Status written = RetryWithBackoff(policy, retry_rng, [&]() -> Status {
      HPM_INJECT_FAULT("store/save_object");
      HPM_RETURN_IF_ERROR(AtomicWriteFile(CsvPath(directory, id, gen), csv));
      if (has_model) {
        return object.predictor->SaveToFile(ModelPath(directory, id, gen));
      }
      return Status::OK();
    });
    if (!written.ok()) {
      return written.Annotate("save object " + std::to_string(id));
    }

    char line[160];
    std::snprintf(line, sizeof(line),
                  "object %" PRId64 " %zu %zu %d %08x\n", id,
                  object.history.size(), object.consumed, has_model ? 1 : 0,
                  Crc32(csv));
    manifest += line;
  }

  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc32 %08x\n", Crc32(manifest));
  manifest += crc_line;

  Status wrote_manifest =
      RetryWithBackoff(policy, retry_rng, [&]() -> Status {
        HPM_INJECT_FAULT("store/save_manifest");
        return AtomicWriteFile(ManifestPath(directory, gen), manifest);
      });
  if (!wrote_manifest.ok()) return wrote_manifest.Annotate("save manifest");

  // The commit point: after this rename the new generation is live.
  Status committed = RetryWithBackoff(policy, retry_rng, [&]() -> Status {
    HPM_INJECT_FAULT("store/save_commit");
    return WriteCurrent(directory, gen);
  });
  if (!committed.ok()) return committed.Annotate("commit");
  generation_->store(gen, std::memory_order_relaxed);

  // Best-effort cleanup: keep this generation and the previous one (the
  // recovery target if this generation's files later rot).
  for (uint64_t old_gen : ListGenerations(directory)) {
    if (old_gen + 1 >= gen) continue;
    // An unreadable manifest still goes; its object files stay.
    std::vector<ManifestEntry> entries;
    StatusOr<std::string> old_manifest =
        ReadFileToString(ManifestPath(directory, old_gen));
    if (!old_manifest.ok() || !ParseManifest(*old_manifest, &entries).ok()) {
      entries.clear();
    }
    for (const std::string& name : GenerationFiles(old_gen, entries)) {
      std::remove((directory + "/" + name).c_str());
    }
  }

  // Journal retention mirrors the manifest retention above: a segment
  // stamped before the gen-1 fallback target is covered by both loadable
  // generations, so it can never be needed again. A retire failure only
  // costs durability, never the committed save.
  if (wal_enabled() && !wal_disabled_->load(std::memory_order_relaxed)) {
    const uint64_t retire_below = gen > 0 ? gen - 1 : 0;
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      std::lock_guard<std::mutex> lock(shard.write_mutex);
      if (shard.wal == nullptr) continue;
      if (Status retired = shard.wal->RetireBelow(retire_below);
          !retired.ok()) {
        DisableWal(retired.Annotate("wal retire"));
        break;
      }
    }
  }
  return Status::OK();
}

void MovingObjectStore::ReplayWal(uint64_t loaded_gen) {
  // Replayed records run the full ingest path (miner feed + training
  // thresholds), so the replayed store builds the models live ingest did.
  const std::string& wal_dir = options_.durability.wal_dir;
  const size_t cap = options_.durability.max_quarantine_files;
  // Replay halts per shard at the first corrupt segment: records past a
  // hole must not be applied out of order (ApplyWalRecord would refuse
  // the resulting gaps anyway, but halting also quarantines exactly the
  // segment that broke the stream, not its innocent successors).
  std::vector<int> halted;
  const auto is_halted = [&](int shard) {
    return std::find(halted.begin(), halted.end(), shard) != halted.end();
  };
  for (const WalSegmentInfo& info : ListWalSegments(wal_dir)) {
    if (!info.header_ok) {
      // A torn header is the normal crash-during-rotation shape when the
      // segment is the shard's newest; anywhere else it is corruption.
      // Either way nothing in the file is replayable — quarantine it
      // even when the shard is already halted, so junk never sits in
      // the journal directory forever.
      if (QuarantineFile(wal_dir, info.path, cap)) {
        metrics_->quarantined_files->Increment();
      }
      if (!is_halted(info.shard)) halted.push_back(info.shard);
      continue;
    }
    if (is_halted(info.shard)) continue;
    if (info.base_gen < loaded_gen) continue;  // covered by the snapshot
    StatusOr<WalSegmentContents> contents =
        ReadWalSegment(info.path, /*truncate_torn_tail=*/true);
    if (!contents.ok()) {
      if (QuarantineFile(wal_dir, info.path, cap)) {
        metrics_->quarantined_files->Increment();
      }
      halted.push_back(info.shard);
      continue;
    }
    uint64_t applied = 0;
    for (const WalRecord& record : contents->records) {
      applied += ApplyWalRecord(record);
    }
    metrics_->wal_replayed_records->Increment(applied);
    metrics_->wal_truncated_bytes->Increment(contents->truncated_bytes);
    if (contents->corrupt) {
      if (QuarantineFile(wal_dir, info.path, cap)) {
        metrics_->quarantined_files->Increment();
      }
      halted.push_back(info.shard);
    }
  }
}

StatusOr<MovingObjectStore> MovingObjectStore::LoadFromDirectory(
    const std::string& directory, ObjectStoreOptions options) {
  // The journal is attached only after the snapshot load + replay are
  // done: the store under construction must not journal replayed records
  // back into the segments it is reading, and a fresh writer opened too
  // early would interleave with recovery. Strip the wal_dir for the
  // duration and restore it in `finish`.
  const DurabilityOptions durability = options.durability;
  options.durability.wal_dir.clear();
  size_t quarantined = 0;
  const auto finish = [&](MovingObjectStore& store, uint64_t gen) {
    store.options_.durability = durability;
    store.generation_->store(gen, std::memory_order_relaxed);
    if (!durability.wal_dir.empty()) {
      store.ReplayWal(gen);
      if (Status ready = store.InitWal(gen); !ready.ok()) {
        store.DisableWal(ready);
      }
    }
    if (quarantined > 0) {
      store.metrics_->quarantined_files->Increment(quarantined);
    }
  };

  // Attempts a full verified load of one generation. On failure,
  // `*bad_file` names the file that should be quarantined.
  Random retry_rng(kStoreIoRetrySeed);
  const auto try_load_generation =
      [&](uint64_t gen,
          std::string* bad_file) -> StatusOr<MovingObjectStore> {
    const std::string manifest_path = ManifestPath(directory, gen);
    *bad_file = manifest_path;
    StatusOr<std::string> manifest = ReadStoreFile(manifest_path, retry_rng);
    if (!manifest.ok()) return manifest.status();
    std::vector<ManifestEntry> entries;
    HPM_RETURN_IF_ERROR(ParseManifest(*manifest, &entries));

    MovingObjectStore store(options);
    const size_t period =
        static_cast<size_t>(options.predictor.regions.period);
    for (const ManifestEntry& entry : entries) {
      // A consumed mark is the window end a model was built at: a period
      // multiple inside the history, and zero for an untrained object.
      // Anything else means the manifest itself is corrupt.
      *bad_file = manifest_path;
      if (entry.consumed > entry.history_len ||
          entry.consumed % period != 0 ||
          (entry.consumed != 0 && !entry.has_model)) {
        return Status::DataLoss("corrupt consumed count for object " +
                                std::to_string(entry.id));
      }
      const std::string csv_path = CsvPath(directory, entry.id, gen);
      *bad_file = csv_path;
      StatusOr<std::string> csv = ReadStoreFile(csv_path, retry_rng);
      if (!csv.ok()) return csv.status();
      if (Crc32(*csv) != entry.csv_crc) {
        return Status::DataLoss("csv checksum mismatch: " + csv_path);
      }
      StatusOr<Trajectory> history = ParseTrajectoryCsv(*csv);
      if (!history.ok()) return history.status();
      if (history->size() != entry.history_len) {
        return Status::DataLoss("history length mismatch for object " +
                                std::to_string(entry.id));
      }
      auto record =
          std::make_unique<ObjectRecord>(entry.id, store.NewMiner());
      record->history = std::move(*history);
      record->consumed_samples = entry.consumed;
      if (entry.has_model) {
        const std::string model_path = ModelPath(directory, entry.id, gen);
        *bad_file = model_path;
        auto predictor = RetryWithBackoff(
            RetryPolicy{}, retry_rng,
            [&]() -> StatusOr<std::unique_ptr<HybridPredictor>> {
              HPM_INJECT_FAULT("store/load_read");
              return HybridPredictor::LoadFromFile(model_path);
            });
        if (!predictor.ok()) return predictor.status();
        record->predictor = std::move(*predictor);
        store.metrics_->tpt_frozen_bytes->Increment(
            record->predictor->summary().tpt_frozen_bytes);
      }
      // Rebuild the miner's window + counts from the loaded history; a
      // primed miner lands on the exact state an always-on miner would
      // hold (the counts are a pure function of the window), with drift
      // accumulating only past the loaded model's data.
      record->miner.Prime(record->history, record->consumed_samples,
                          SharedRegions(record->predictor));
      // The store is unpublished while loading; no lock needed, and the
      // tables are (re)published in one sweep below.
      record->view.store(store.BuildView(*record),
                         std::memory_order_relaxed);
      store.ShardFor(entry.id).records.emplace(entry.id,
                                               std::move(record));
    }
    for (const auto& shard : store.shards_) store.PublishTable(*shard);
    bad_file->clear();
    return store;
  };

  // Candidate generations: CURRENT's first, then every other manifest in
  // the directory, newest first.
  std::vector<uint64_t> candidates;
  uint64_t current_gen = 0;
  const bool have_current =
      ReadCurrentGeneration(directory, &current_gen);
  if (have_current) candidates.push_back(current_gen);
  for (uint64_t gen : ListGenerations(directory)) {
    if (!have_current || gen != current_gen) candidates.push_back(gen);
  }
  if (candidates.empty()) {
    // No snapshot, but a journal may still hold every report acknowledged
    // before a crash that preceded the first save: recover from an empty
    // store at generation 0.
    if (!durability.wal_dir.empty() &&
        !ListWalSegments(durability.wal_dir).empty()) {
      MovingObjectStore store(options);
      finish(store, 0);
      return store;
    }
    return Status::InvalidArgument("no manifest in " + directory);
  }

  Status last_error = Status::OK();
  for (uint64_t gen : candidates) {
    std::string bad_file;
    StatusOr<MovingObjectStore> store =
        try_load_generation(gen, &bad_file);
    if (store.ok()) {
      finish(*store, gen);
      return store;
    }
    last_error = store.status().Annotate(ManifestName(gen));
    // A model file of another format version is not corrupt: stop, and
    // leave the snapshot as it is for a build that reads it.
    if (last_error.code() == StatusCode::kFailedPrecondition) {
      return last_error;
    }
    // Retries are exhausted by now: the file is corrupt (or persistently
    // unreadable), so move it aside and fall back a generation.
    if (!bad_file.empty() &&
        QuarantineFile(directory, bad_file,
                       durability.max_quarantine_files)) {
      ++quarantined;
    }
  }
  return Status::DataLoss("no loadable store generation in " + directory +
                          " (last error: " + last_error.ToString() + ")");
}

}  // namespace hpm
