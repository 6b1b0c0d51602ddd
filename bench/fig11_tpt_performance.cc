// Figure 11 — Performance of TPT (paper §VII-C).
//
// (a) Storage consumption (MB) of the TPT as the number of indexed
//     patterns grows from 1k to 100k, for universes of 80 / 400 / 800
//     frequent regions (pattern-key length drives per-entry cost).
// (b) Search cost: response time of TPT vs a brute-force scan over the
//     same pattern sets (800 regions). Expected shape: TPT stays nearly
//     constant while brute force grows linearly with the pattern count.
//
// The pattern sets are synthetic (random keys), as the figure measures
// index mechanics rather than mining output.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "tpt_reference/brute_force_store.h"
#include "tpt_reference/tpt_tree.h"

namespace {

using namespace hpm;

constexpr size_t kConsequenceOffsets = 60;

IndexedPattern RandomPattern(Random* rng, size_t num_regions, int id) {
  IndexedPattern p;
  p.key = PatternKey(num_regions, kConsequenceOffsets);
  // Mined patterns have 1-2 premise regions and one consequence offset.
  p.key.mutable_premise().Set(rng->Uniform(num_regions));
  if (rng->Bernoulli(0.5)) {
    p.key.mutable_premise().Set(rng->Uniform(num_regions));
  }
  p.key.mutable_consequence().Set(rng->Uniform(kConsequenceOffsets));
  p.confidence = rng->NextDouble();
  p.consequence_region = static_cast<int>(rng->Uniform(num_regions));
  p.pattern_id = id;
  return p;
}

PatternKey RandomQuery(Random* rng, size_t num_regions) {
  PatternKey q(num_regions, kConsequenceOffsets);
  for (int i = 0; i < 5; ++i) {
    q.mutable_premise().Set(rng->Uniform(num_regions));
  }
  q.mutable_consequence().Set(rng->Uniform(kConsequenceOffsets));
  return q;
}

}  // namespace

int main() {
  using namespace hpm::bench;

  PrintHeader("Figure 11: Performance of TPT",
              "(a) storage (MB) vs patterns for 80/400/800 frequent "
              "regions; (b) search time (ms), TPT vs brute-force");

  const std::vector<int> pattern_counts = {1000, 5000, 10000, 50000,
                                           100000};

  std::printf("\n(a) Storage Consumption\n");
  TablePrinter storage({"patterns", "MB_80_regions", "MB_400_regions",
                        "MB_800_regions"});
  for (const int count : pattern_counts) {
    std::vector<std::string> row = {std::to_string(count)};
    for (const size_t regions : {size_t{80}, size_t{400}, size_t{800}}) {
      Random rng(regions * 7 + static_cast<uint64_t>(count));
      TptTree tree;
      for (int i = 0; i < count; ++i) {
        HPM_CHECK(tree.Insert(RandomPattern(&rng, regions, i)).ok());
      }
      row.push_back(
          Fmt(static_cast<double>(tree.MemoryBytes()) / (1024.0 * 1024.0),
              2));
    }
    storage.AddRow(row);
  }
  storage.Print(stdout);

  std::printf("\n(b) Search Cost (800 frequent regions)\n");
  TablePrinter search({"patterns", "TPT_ms", "brute_force_ms",
                       "TPT_entries_tested", "brute_entries_tested"});
  for (const int count : pattern_counts) {
    Random rng(static_cast<uint64_t>(count) * 13);
    const size_t regions = 800;
    TptTree tree;
    BruteForceStore brute;
    for (int i = 0; i < count; ++i) {
      IndexedPattern p = RandomPattern(&rng, regions, i);
      HPM_CHECK(brute.Insert(p).ok());
      HPM_CHECK(tree.Insert(std::move(p)).ok());
    }
    const int kQueries = 30;
    std::vector<PatternKey> queries;
    for (int q = 0; q < kQueries; ++q) {
      queries.push_back(RandomQuery(&rng, regions));
    }

    TptSearchStats tpt_stats, brute_stats;
    Stopwatch tpt_timer;
    size_t tpt_hits = 0;
    for (const PatternKey& q : queries) {
      tpt_hits +=
          tree.Search(q, SearchMode::kPremiseAndConsequence, &tpt_stats)
              .size();
    }
    const double tpt_ms = tpt_timer.ElapsedMillis() / kQueries;

    Stopwatch brute_timer;
    size_t brute_hits = 0;
    for (const PatternKey& q : queries) {
      brute_hits +=
          brute.Search(q, SearchMode::kPremiseAndConsequence, &brute_stats)
              .size();
    }
    const double brute_ms = brute_timer.ElapsedMillis() / kQueries;
    HPM_CHECK(tpt_hits == brute_hits);

    search.AddRow({std::to_string(count), Fmt(tpt_ms, 4), Fmt(brute_ms, 4),
                   std::to_string(tpt_stats.entries_tested / kQueries),
                   std::to_string(brute_stats.entries_tested / kQueries)});
  }
  search.Print(stdout);
  return 0;
}
