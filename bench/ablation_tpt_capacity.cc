// Ablation — TPT node capacity.
//
// The paper fixes the signature-tree node layout; an open-source release
// should document the capacity/latency trade-off: small nodes mean a
// taller tree with finer-grained union keys (better pruning, more
// pointer hops); large nodes mean shallow trees and coarser keys. This
// bench sweeps max_node_entries over a fixed synthetic pattern set for
// the arena models serve from (FrozenTpt::Pack), with the paper's
// insertion-built tree (tpt_reference) alongside as the reference.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "tpt/frozen_tpt.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace {

using namespace hpm;

IndexedPattern RandomPattern(Random* rng, size_t regions, size_t offsets,
                             int id) {
  IndexedPattern p;
  p.key = PatternKey(regions, offsets);
  p.key.mutable_premise().Set(rng->Uniform(regions));
  if (rng->Bernoulli(0.5)) p.key.mutable_premise().Set(rng->Uniform(regions));
  p.key.mutable_consequence().Set(rng->Uniform(offsets));
  p.pattern_id = id;
  return p;
}

}  // namespace

int main() {
  using namespace hpm::bench;

  PrintHeader("Ablation: TPT node capacity",
              "packed arena vs insertion-built reference: build time, "
              "memory, height and search cost vs max_node_entries (50k "
              "synthetic patterns, 400 regions)");

  constexpr int kPatterns = 50000;
  constexpr size_t kRegions = 400;
  constexpr size_t kOffsets = 60;
  constexpr int kQueries = 50;

  // One fixed pattern set and query set across all capacities.
  Random rng(4242);
  std::vector<IndexedPattern> patterns;
  for (int i = 0; i < kPatterns; ++i) {
    patterns.push_back(RandomPattern(&rng, kRegions, kOffsets, i));
  }
  std::vector<PatternKey> queries;
  for (int i = 0; i < kQueries; ++i) {
    PatternKey q(kRegions, kOffsets);
    for (int b = 0; b < 5; ++b) q.mutable_premise().Set(rng.Uniform(kRegions));
    q.mutable_consequence().Set(rng.Uniform(kOffsets));
    queries.push_back(std::move(q));
  }

  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (const IndexedPattern& p : patterns) {
    keys.push_back(p.key);
    payloads.push_back(
        LeafPayload{p.confidence, p.consequence_region, p.pattern_id, 0});
  }

  const StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  HPM_CHECK(blocks.ok());

  TablePrinter table({"max_entries", "pack_ms", "height", "memory_MB",
                      "search_us", "entries_tested", "ref_build_ms",
                      "ref_height", "ref_search_us", "ref_entries_tested"});
  size_t reference_hits = 0;
  for (const int max_entries : {8, 16, 32, 64, 128, 256}) {
    Stopwatch pack;
    auto packed = FrozenTpt::Pack(*blocks, payloads, max_entries);
    HPM_CHECK(packed.ok());
    const double pack_ms = pack.ElapsedMillis();
    HPM_CHECK(packed->CheckInvariants().ok());

    TptTree::Options options;
    options.max_node_entries = max_entries;
    options.min_node_entries = std::max(2, max_entries * 2 / 5);
    Stopwatch build;
    auto tree = TptTree::BulkLoad(patterns, options);
    HPM_CHECK(tree.ok());
    const double build_ms = build.ElapsedMillis();
    HPM_CHECK(tree->CheckInvariants().ok());

    TptSearchStats stats;
    size_t hits = 0;
    Stopwatch search;
    for (const PatternKey& q : queries) {
      hits += packed->Search(q, SearchMode::kPremiseAndConsequence, &stats)
                  .size();
    }
    const double search_us = search.ElapsedMillis() * 1000.0 / kQueries;

    TptSearchStats ref_stats;
    size_t ref_hits = 0;
    Stopwatch ref_search;
    for (const PatternKey& q : queries) {
      ref_hits +=
          tree->Search(q, SearchMode::kPremiseAndConsequence, &ref_stats)
              .size();
    }
    const double ref_search_us =
        ref_search.ElapsedMillis() * 1000.0 / kQueries;

    // Neither the capacity nor the build may change results.
    HPM_CHECK(ref_hits == hits);
    if (reference_hits == 0) {
      reference_hits = hits;
    } else {
      HPM_CHECK(hits == reference_hits);
    }

    table.AddRow({std::to_string(max_entries), Fmt(pack_ms, 1),
                  std::to_string(packed->Height()),
                  Fmt(static_cast<double>(packed->MemoryBytes()) / 1048576.0,
                      2),
                  Fmt(search_us, 1),
                  std::to_string(stats.entries_tested / kQueries),
                  Fmt(build_ms, 1), std::to_string(tree->Height()),
                  Fmt(ref_search_us, 1),
                  std::to_string(ref_stats.entries_tested / kQueries)});
  }
  table.Print(stdout);
  return 0;
}
