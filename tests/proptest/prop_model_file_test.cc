// Property suite: hostile model files. Valid files of random trained
// models are mutated — bits flipped, one field overwritten with a
// boundary value, the FTPT section truncated or spliced — and both the
// section CRC and the footer CRC are re-stamped, so every mutation gets
// past the checksums to the decoders and validators behind them. One
// mutation edits a single leaf key bit and re-derives the internal keys
// above it, so the loader's checks of leaves against regions are reached
// too.
// LoadFromFile must then either return a Status, or return a model that
// passes tpt().CheckInvariants(), answers Predict, ForwardQuery and
// BackwardQuery and derives its PatternTable() without aborting, gives
// pattern answers that are sane (a region it has, at the query's offset
// for FQP, among PatternAnswerCentres, a confidence in [0, 1], a finite
// score), and re-saves to exactly the bytes it was loaded from.
//
// Labelled `tpt` as well as `prop`, so the sanitizer legs of
// scripts/check.sh (ASan runs `prop`, UBSan runs `tpt`) both run it.

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/hybrid_predictor.h"
#include "io/atomic_file.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 12;
constexpr size_t kFooterSize = 8;  // "HPMC" + crc32.
constexpr int kMutationsPerModel = 40;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

/// Mutated files that loaded and that were refused, over the whole run:
/// the property is vacuous unless both happen.
std::atomic<int> loaded_files{0};
std::atomic<int> refused_files{0};

struct HostileCase {
  Trajectory history;
  int capacity = 4;
  /// Mine nothing: the file carries an empty arena.
  bool empty_model = false;
  uint64_t mutation_seed = 0;
};

HostileCase GenCase(Random& rng) {
  HostileCase c;
  const int periods = static_cast<int>(5 + rng.Uniform(4));
  c.history = proptest::PeriodicHistory(rng, kPeriod, periods, kExtent,
                                        rng.UniformDouble(1.0, 3.0));
  c.capacity = static_cast<int>(4 + rng.Uniform(6));
  c.empty_model = rng.Bernoulli(0.15);
  c.mutation_seed = rng.NextUint64();
  return c;
}

HybridPredictorOptions PredictorOptions(const HostileCase& c) {
  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 12.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = c.empty_model ? 1 << 20 : 2;
  options.tpt.max_node_entries = c.capacity;
  options.distant_threshold = 6;
  options.region_match_slack = 6.0;
  return options;
}

/// Unique scratch path per invocation.
std::string ScratchPath(const std::string& stem) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "hpm_hostile_" + stem + "_" +
         std::to_string(counter.fetch_add(1));
}

/// One field of a model file: where it is, how wide, and whether it
/// holds a double.
struct Field {
  size_t offset = 0;
  size_t width = 0;
  bool is_double = false;
};

/// One arena node as the section stores it.
struct Node {
  uint32_t first = 0;
  uint32_t count = 0;
  uint32_t is_leaf = 0;
};

/// The fields of a saved model file, grouped by part, where its FTPT
/// section lies, and the arena topology it was saved with. Mutations pick
/// a part first, so the few option and header fields are hit as often
/// as the many key words.
struct Layout {
  std::vector<std::vector<Field>> parts;
  size_t section_begin = 0;
  size_t section_end = 0;  // Where the footer starts.
  size_t premise_bits = 0;
  size_t consequence_bits = 0;
  size_t consequence_words = 0;
  size_t stride = 0;
  size_t keys_offset = 0;
  std::vector<Node> nodes;
  std::vector<uint32_t> targets;
  std::vector<uint32_t> leaf_entries;
};

uint32_t U32At(const std::string& bytes, size_t offset) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

/// Walks the v3 layout of `model`'s saved `bytes`. Empty on a layout that
/// does not end exactly at the footer.
std::string MapLayout(const HybridPredictor& model, const std::string& bytes,
                      Layout* layout) {
  size_t at = 8;  // "HPM1", version.
  std::vector<Field>* part = nullptr;
  const auto begin_part = [&] { part = &layout->parts.emplace_back(); };
  const auto add = [&](size_t width, bool is_double) {
    part->push_back({at, width, is_double});
    at += width;
  };
  // Options, in the writer's order: period, eps, min_pts, sub limit,
  // min confidence, min support, max length, premise window, pruning
  // flag, node capacity, weight function, d, t_eps, slack, retrospect,
  // auto flag, window, clamp box.
  begin_part();
  for (const bool d : {false, true, false, false, true, false, false, false}) {
    add(8, d);
  }
  add(1, false);
  for (const bool d : {false, false, false, false, true, false}) add(8, d);
  add(1, false);
  add(8, false);
  add(1, false);
  if (!model.options().rmf.clamp_box.IsEmpty()) {
    for (int i = 0; i < 4; ++i) add(8, true);
  }
  // Regions: count, then id, offset, index, centre, MBR, support each;
  // then the sub-trajectory count.
  begin_part();
  add(8, false);
  for (const FrequentRegion& r : model.regions().regions()) {
    for (const bool d : {false, false, false, true, true}) add(8, d);
    add(1, false);
    if (!r.mbr.IsEmpty()) {
      for (int i = 0; i < 4; ++i) add(8, true);
    }
    add(8, false);
  }
  add(8, false);
  // The FTPT section: header counts, topology, key words, payloads.
  layout->section_begin = at;
  at += 4;  // "FTPT"
  begin_part();
  for (int i = 0; i < 6; ++i) add(4, false);
  const size_t base = layout->section_begin;
  layout->premise_bits = U32At(bytes, base + 8);
  layout->consequence_bits = U32At(bytes, base + 12);
  layout->consequence_words = (layout->consequence_bits + 63) / 64;
  const size_t stride =
      (layout->premise_bits + 63) / 64 + layout->consequence_words;
  layout->stride = stride;
  const size_t nodes = U32At(bytes, base + 16);
  const size_t entries = U32At(bytes, base + 20);
  const size_t patterns = U32At(bytes, base + 24);
  for (size_t i = 0; i < nodes; ++i) {
    const size_t node = at + 12 * i;
    layout->nodes.push_back({U32At(bytes, node), U32At(bytes, node + 4),
                             U32At(bytes, node + 8)});
  }
  for (size_t i = 0; i < entries; ++i) {
    layout->targets.push_back(U32At(bytes, at + 12 * nodes + 4 * i));
  }
  for (const Node& node : layout->nodes) {
    for (uint32_t e = node.first; node.is_leaf && e < node.first + node.count;
         ++e) {
      layout->leaf_entries.push_back(e);
    }
  }
  begin_part();
  for (size_t i = 0; i < 3 * nodes + entries; ++i) add(4, false);
  layout->keys_offset = at;
  begin_part();
  for (size_t i = 0; i < entries * stride; ++i) add(8, false);
  begin_part();
  for (size_t i = 0; i < patterns; ++i) {
    add(8, true);
    add(4, false);
    add(4, false);
    add(4, false);
  }
  at += 4;  // Section CRC.
  layout->section_end = bytes.size() - kFooterSize;
  if (at != layout->section_end) {
    return "file layout ends at byte " + std::to_string(at) +
           ", the footer starts at " + std::to_string(layout->section_end);
  }
  std::erase_if(layout->parts,
                [](const std::vector<Field>& p) { return p.empty(); });
  return "";
}

/// Writes `value` over `field`, as a double for double fields and as
/// the field's low bytes (little-endian) otherwise.
void Overwrite(std::string* bytes, const Field& field, double value) {
  if (field.is_double) {
    std::memcpy(bytes->data() + field.offset, &value, sizeof(value));
    return;
  }
  const int64_t integer =
      std::isnan(value) ? 0x7ff8000000000000LL : static_cast<int64_t>(value);
  std::memcpy(bytes->data() + field.offset, &integer, field.width);
}

/// Re-derives every internal key of the arena as the union of its
/// child's keys, so a leaf-key edit reaches the loader's checks instead
/// of the section's union check. Children follow their parents, so a
/// reverse sweep sees every child before its parent.
void RestampUnions(std::string* bytes, const Layout& layout) {
  const auto word = [&](size_t entry, size_t w) {
    return bytes->data() + layout.keys_offset +
           (entry * layout.stride + w) * 8;
  };
  for (size_t n = layout.nodes.size(); n-- > 0;) {
    const Node& node = layout.nodes[n];
    if (node.is_leaf != 0) continue;
    for (uint32_t e = node.first; e < node.first + node.count; ++e) {
      const Node& child = layout.nodes[layout.targets[e]];
      for (size_t w = 0; w < layout.stride; ++w) {
        uint64_t merged = 0;
        for (uint32_t c = child.first; c < child.first + child.count; ++c) {
          uint64_t v = 0;
          std::memcpy(&v, word(c, w), sizeof(v));
          merged |= v;
        }
        std::memcpy(word(e, w), &merged, sizeof(merged));
      }
    }
  }
}

/// Applies one random mutation to `bytes` and returns what it did. `n`
/// is the model's pattern count or region count, a boundary value for
/// overwritten fields.
std::string Mutate(std::string* bytes, const Layout& layout, size_t n,
                   Random& rng) {
  const size_t begin = layout.section_begin;
  const size_t end = layout.section_end;
  switch (rng.Uniform(5)) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.Uniform(4));
      std::string what = "flip bits";
      for (int i = 0; i < flips; ++i) {
        const size_t bit = rng.Uniform(end * 8);
        (*bytes)[bit / 8] = static_cast<char>((*bytes)[bit / 8] ^
                                              (1 << (bit % 8)));
        what += " " + std::to_string(bit);
      }
      return what;
    }
    case 1: {
      const std::vector<Field>& part =
          layout.parts[rng.Uniform(layout.parts.size())];
      const Field& field = part[rng.Uniform(part.size())];
      const double values[] = {0.0,
                               1.0,
                               -1.0,
                               static_cast<double>(n),
                               static_cast<double>(n + 1),
                               2147483648.0,
                               std::numeric_limits<double>::quiet_NaN()};
      const double value = values[rng.Uniform(field.is_double ? 7 : 6)];
      Overwrite(bytes, field, value);
      return "overwrite the " + std::to_string(field.width) +
             "-byte field at " + std::to_string(field.offset) + " with " +
             std::to_string(value);
    }
    case 2: {
      const size_t from = begin + rng.Uniform(end - begin);
      const size_t to =
          rng.Bernoulli(0.5) ? end : from + 1 + rng.Uniform(end - from);
      bytes->erase(from, to - from);
      return "cut section bytes [" + std::to_string(from) + ", " +
             std::to_string(to) + ")";
    }
    case 4: {
      // One bit of one leaf's key, inside its part's width, carried up
      // into the internal keys: structurally sound, so only the loader's
      // checks stand between it and the query path.
      const size_t bits = layout.consequence_bits + layout.premise_bits;
      if (layout.leaf_entries.empty() || bits == 0) return "nothing";
      const uint32_t entry =
          layout.leaf_entries[rng.Uniform(layout.leaf_entries.size())];
      size_t bit = rng.Uniform(bits);
      if (bit >= layout.consequence_bits) {
        bit = layout.consequence_words * 64 + bit - layout.consequence_bits;
      }
      char* byte = bytes->data() + layout.keys_offset +
                   entry * layout.stride * 8 + bit / 8;
      *byte = static_cast<char>(*byte ^ (1 << (bit % 8)));
      RestampUnions(bytes, layout);
      return "flip key bit " + std::to_string(bit) + " of leaf entry " +
             std::to_string(entry);
    }
    default: {
      const size_t len = 1 + rng.Uniform(std::min<size_t>(64, end - begin));
      const size_t from = begin + rng.Uniform(end - begin - len + 1);
      const size_t at = begin + rng.Uniform(end - begin + 1);
      const std::string chunk = bytes->substr(from, len);
      bytes->insert(at, chunk);
      return "splice " + std::to_string(len) + " section bytes from " +
             std::to_string(from) + " in at " + std::to_string(at);
    }
  }
}

/// Re-stamps the section CRC (the 4 bytes before the footer, over the
/// section bytes before them) and then the footer CRC.
void Restamp(std::string* bytes, size_t section_begin) {
  const size_t section_end = bytes->size() - kFooterSize;
  if (section_end >= section_begin + 8) {
    const uint32_t crc = Crc32(bytes->data() + section_begin,
                               section_end - 4 - section_begin);
    std::memcpy(bytes->data() + section_end - 4, &crc, sizeof(crc));
  }
  const uint32_t crc = Crc32(bytes->data(), section_end);
  std::memcpy(bytes->data() + section_end, "HPMC", 4);
  std::memcpy(bytes->data() + section_end + 4, &crc, sizeof(crc));
}

bool WritePlain(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

/// Empty when every pattern answer in `answers` is sane: a consequence
/// region the model has, at period offset `offset` when FQP answered
/// (offset >= 0), a confidence in [0, 1] and a finite score.
std::string CheckAnswers(const HybridPredictor& model,
                         const StatusOr<std::vector<Prediction>>& answers,
                         Timestamp offset) {
  if (!answers.ok()) return "";
  for (const Prediction& p : *answers) {
    if (p.source != PredictionSource::kPattern) continue;
    if (p.consequence_region < 0 ||
        static_cast<size_t>(p.consequence_region) >=
            model.regions().NumRegions()) {
      return "a pattern answer names a region the model does not have";
    }
    if (offset >= 0 &&
        model.regions().Region(p.consequence_region).offset != offset) {
      return "an FQP answer concludes at another period offset";
    }
    if (!(p.confidence >= 0.0 && p.confidence <= 1.0) ||
        !std::isfinite(p.score)) {
      return "a pattern answer has a confidence outside [0, 1] or a "
             "non-finite score";
    }
  }
  return "";
}

/// Empty when a model loaded from a mutated file behaves: sound arena,
/// sane answers from every query processor, inside the centres that
/// PatternAnswerCentres promises, a derived table that lists each leaf
/// once, and a re-save that reproduces `bytes`.
std::string CheckLoadedModel(const HybridPredictor& model,
                             const Trajectory& history,
                             const std::string& bytes) {
  const Status invariants = model.tpt().CheckInvariants();
  if (!invariants.ok()) return "CheckInvariants: " + invariants.ToString();
  const Timestamp now = static_cast<Timestamp>(history.size()) - 1;
  for (const Timestamp horizon : {Timestamp{1}, Timestamp{5}, 3 * kPeriod}) {
    PredictiveQuery query;
    query.recent_movements = history.RecentMovements(now, 6);
    query.current_time = now;
    query.query_time = now + horizon;
    query.k = 3;
    const Timestamp offset = query.query_time % model.regions().period();
    const StatusOr<std::vector<Prediction>> answers = model.Predict(query);
    const CentreRuns centres =
        model.PatternAnswerCentres(now, query.query_time);
    for (const Prediction& p : answers.ok() ? *answers
                                            : std::vector<Prediction>{}) {
      bool listed = p.source != PredictionSource::kPattern;
      for (const std::span<const Point>& run : centres.runs) {
        for (const Point& c : run) {
          listed = listed || std::memcmp(&c, &p.location, sizeof(c)) == 0;
        }
      }
      if (!listed) return "a pattern answer is not among its possible centres";
    }
    for (const std::string& failure :
         {CheckAnswers(model, answers, -1),
          CheckAnswers(model, model.ForwardQuery(query), offset),
          CheckAnswers(model, model.BackwardQuery(query), -1)}) {
      if (!failure.empty()) return failure;
    }
  }
  const std::vector<TrajectoryPattern> table = model.PatternTable();
  if (table.size() != model.tpt().size()) return "table size != arena size";
  for (const LeafPayload& payload : model.tpt().payloads()) {
    const TrajectoryPattern& p = table[static_cast<size_t>(payload.pattern_id)];
    if (p.consequence != payload.consequence_region ||
        p.confidence != payload.confidence || p.support != payload.support) {
      return "the derived table does not list each leaf once";
    }
  }
  const std::string path = ScratchPath("resaved");
  const Status saved = model.SaveToFile(path);
  const StatusOr<std::string> resaved = ReadFileToString(path);
  std::filesystem::remove(path);
  if (!saved.ok()) return "re-save failed: " + saved.ToString();
  if (!resaved.ok()) return "reading the re-saved model failed";
  if (*resaved != bytes) return "re-saving the loaded model changed the bytes";
  return "";
}

std::string CheckHostileFiles(const HostileCase& input) {
  StatusOr<std::unique_ptr<HybridPredictor>> trained =
      HybridPredictor::Train(input.history, PredictorOptions(input));
  if (!trained.ok()) return "Train failed: " + trained.status().ToString();
  const HybridPredictor& model = **trained;
  const std::string path = ScratchPath("model");
  const Status saved = model.SaveToFile(path);
  const StatusOr<std::string> pristine = ReadFileToString(path);
  std::filesystem::remove(path);
  if (!saved.ok()) return "SaveToFile failed: " + saved.ToString();
  if (!pristine.ok()) return "reading the saved model failed";
  Layout layout;
  const std::string mapped = MapLayout(model, *pristine, &layout);
  if (!mapped.empty()) return mapped;

  Random rng(input.mutation_seed);
  const std::string mutated_path = ScratchPath("mutated");
  for (int round = 0; round < kMutationsPerModel; ++round) {
    std::string bytes = *pristine;
    const size_t n = rng.Bernoulli(0.5) ? model.tpt().size()
                                        : model.regions().NumRegions();
    const std::string what = Mutate(&bytes, layout, n, rng);
    Restamp(&bytes, layout.section_begin);
    if (!WritePlain(mutated_path, bytes)) return "writing a mutated file failed";
    StatusOr<std::unique_ptr<HybridPredictor>> loaded =
        HybridPredictor::LoadFromFile(mutated_path);
    if (!loaded.ok()) {
      ++refused_files;
      continue;
    }
    ++loaded_files;
    const std::string failure = CheckLoadedModel(**loaded, input.history, bytes);
    if (!failure.empty()) {
      std::filesystem::remove(mutated_path);
      return "after \"" + what + "\" (round " + std::to_string(round) +
             "): " + failure;
    }
  }
  std::filesystem::remove(mutated_path);
  return "";
}

TEST(PropModelFileTest, HostileFilesFailCleanlyOrLoadSoundModels) {
  Property<HostileCase> property("hostile-model-file", GenCase,
                                 CheckHostileFiles);
  RunnerOptions options;
  options.num_cases = 80;
  options.max_shrink_checks = 0;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_GT(loaded_files.load(), 0);
  EXPECT_GT(refused_files.load(), 0);
}

}  // namespace
}  // namespace hpm
