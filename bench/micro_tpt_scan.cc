// Micro-benchmarks for the TPT, across pattern-set sizes:
//   - build: FrozenTpt::Pack (sort and pack, what models use) against the
//     reference TptTree's Algorithm 1 insertion followed by Freeze;
//   - search, both modes: the reference pointer tree, its frozen arena
//     and the packed arena, the two arenas reporting `entries_tested`
//     and `blocks_scanned` per query;
//   - the raw word-wise Intersect/Contain primitives on packed blocks.
// Run it on both sides of a build or hot-loop change before trusting the
// fleet numbers:
//   ./build/bench/micro_tpt_scan --benchmark_filter=Build

#include <benchmark/benchmark.h>

#include <vector>

#include "bitset/word_ops.h"
#include "common/random.h"
#include "tpt/frozen_tpt.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

constexpr size_t kPremiseLen = 400;
constexpr size_t kConsequenceLen = 60;

PatternKey RandomKey(Random* rng, double premise_density = 0.01) {
  PatternKey key(kPremiseLen, kConsequenceLen);
  key.mutable_premise().Set(rng->Uniform(kPremiseLen));
  for (size_t i = 0; i < kPremiseLen; ++i) {
    if (rng->Bernoulli(premise_density)) key.mutable_premise().Set(i);
  }
  key.mutable_consequence().Set(rng->Uniform(kConsequenceLen));
  return key;
}

std::vector<IndexedPattern> RandomPatterns(int count, uint64_t seed) {
  Random rng(seed);
  std::vector<IndexedPattern> patterns;
  patterns.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    IndexedPattern p;
    p.key = RandomKey(&rng);
    p.confidence = 0.5;
    p.consequence_region = i % 97;
    p.pattern_id = i;
    patterns.push_back(std::move(p));
  }
  return patterns;
}

/// The packed arena of `patterns` at the default node capacity.
FrozenTpt PackedArena(const std::vector<IndexedPattern>& patterns) {
  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (const IndexedPattern& p : patterns) {
    keys.push_back(p.key);
    payloads.push_back(
        LeafPayload{p.confidence, p.consequence_region, p.pattern_id, 0});
  }
  StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  HPM_CHECK(blocks.ok());
  StatusOr<FrozenTpt> packed =
      FrozenTpt::Pack(*blocks, payloads, TptOptions{}.max_node_entries);
  HPM_CHECK(packed.ok());
  return std::move(*packed);
}

/// One query per iteration from a fixed pool, so the loop measures the
/// scan rather than one lucky (or unlucky) key's pruning profile.
std::vector<PatternKey> QueryPool(uint64_t seed) {
  Random rng(seed);
  std::vector<PatternKey> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(RandomKey(&rng, 0.02));
  return pool;
}

void BM_TreeSearch(benchmark::State& state, SearchMode mode) {
  const std::vector<IndexedPattern> patterns =
      RandomPatterns(static_cast<int>(state.range(0)), 11);
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  HPM_CHECK(tree.ok());
  const std::vector<PatternKey> queries = QueryPool(12);
  std::vector<const IndexedPattern*> hits;
  size_t q = 0;
  for (auto _ : state) {
    tree->SearchInto(queries[q], mode, &hits);
    benchmark::DoNotOptimize(hits.data());
    q = (q + 1) % queries.size();
  }
}

/// Searches `arena` with the query pool and reports the mean pruning
/// counts per query.
void SearchArena(benchmark::State& state, const FrozenTpt& arena,
                 SearchMode mode) {
  const std::vector<PatternKey> queries = QueryPool(12);
  std::vector<FrozenTpt::Hit> hits;
  TptSearchStats stats;
  size_t q = 0;
  for (auto _ : state) {
    arena.SearchInto(queries[q], mode, &hits, &stats);
    benchmark::DoNotOptimize(hits.data());
    q = (q + 1) % queries.size();
  }
  const double searches = static_cast<double>(state.iterations());
  state.counters["entries_tested"] =
      static_cast<double>(stats.entries_tested) / searches;
  state.counters["blocks_scanned"] =
      static_cast<double>(stats.blocks_scanned) / searches;
}

void BM_FrozenSearch(benchmark::State& state, SearchMode mode) {
  const std::vector<IndexedPattern> patterns =
      RandomPatterns(static_cast<int>(state.range(0)), 11);
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  HPM_CHECK(tree.ok());
  SearchArena(state, tree->Freeze(), mode);
}

void BM_PackedSearch(benchmark::State& state, SearchMode mode) {
  SearchArena(state,
              PackedArena(RandomPatterns(static_cast<int>(state.range(0)), 11)),
              mode);
}

void BM_TptTreeSearchFqp(benchmark::State& state) {
  BM_TreeSearch(state, SearchMode::kPremiseAndConsequence);
}
void BM_TptTreeSearchBqp(benchmark::State& state) {
  BM_TreeSearch(state, SearchMode::kConsequenceOnly);
}
void BM_FrozenTptSearchFqp(benchmark::State& state) {
  BM_FrozenSearch(state, SearchMode::kPremiseAndConsequence);
}
void BM_FrozenTptSearchBqp(benchmark::State& state) {
  BM_FrozenSearch(state, SearchMode::kConsequenceOnly);
}
void BM_PackedTptSearchFqp(benchmark::State& state) {
  BM_PackedSearch(state, SearchMode::kPremiseAndConsequence);
}
void BM_PackedTptSearchBqp(benchmark::State& state) {
  BM_PackedSearch(state, SearchMode::kConsequenceOnly);
}
BENCHMARK(BM_TptTreeSearchFqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FrozenTptSearchFqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_PackedTptSearchFqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TptTreeSearchBqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FrozenTptSearchBqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_PackedTptSearchBqp)->Arg(1000)->Arg(10000)->Arg(100000);

/// Builds from the search benchmarks' pattern sets. The input copy each
/// iteration takes is part of both timings.
void BM_BuildInsertThenFreeze(benchmark::State& state) {
  const std::vector<IndexedPattern> patterns =
      RandomPatterns(static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
    HPM_CHECK(tree.ok());
    const FrozenTpt frozen = tree->Freeze();
    benchmark::DoNotOptimize(frozen.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BuildPack(benchmark::State& state) {
  const std::vector<IndexedPattern> patterns =
      RandomPatterns(static_cast<int>(state.range(0)), 11);
  std::vector<PatternKey> keys;
  std::vector<LeafPayload> payloads;
  for (const IndexedPattern& p : patterns) {
    keys.push_back(p.key);
    payloads.push_back(
        LeafPayload{p.confidence, p.consequence_region, p.pattern_id, 0});
  }
  StatusOr<KeyBlocks> blocks = FlattenKeys(keys);
  HPM_CHECK(blocks.ok());
  for (auto _ : state) {
    const KeyBlocks input = *blocks;
    StatusOr<FrozenTpt> packed =
        FrozenTpt::Pack(input, payloads, TptOptions{}.max_node_entries);
    HPM_CHECK(packed.ok());
    benchmark::DoNotOptimize(packed->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildInsertThenFreeze)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildPack)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The raw primitives the hot loop is made of, on a contiguous run of
/// packed key blocks — entries/second here is the ceiling for any
/// node-scan implementation.
void BM_PackedBlockIntersect(benchmark::State& state) {
  Random rng(13);
  const size_t premise_words = (kPremiseLen + 63) / 64;
  const size_t consequence_words = (kConsequenceLen + 63) / 64;
  const size_t stride = premise_words + consequence_words;
  const size_t num_blocks = 1024;
  std::vector<uint64_t> blocks(num_blocks * stride);
  for (uint64_t& w : blocks) {
    w = rng.NextUint64() & rng.NextUint64() & rng.NextUint64();
  }
  const PatternKey query = RandomKey(&rng, 0.02);
  size_t matches = 0;
  for (auto _ : state) {
    const uint64_t* block = blocks.data();
    for (size_t e = 0; e < num_blocks; ++e, block += stride) {
      if (wordops::AnyCommon(block, query.consequence().words(),
                             consequence_words) &&
          wordops::AnyCommon(block + consequence_words,
                             query.premise().words(), premise_words)) {
        ++matches;
      }
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_blocks));
}
BENCHMARK(BM_PackedBlockIntersect);

void BM_PackedBlockContain(benchmark::State& state) {
  Random rng(14);
  const size_t premise_words = (kPremiseLen + 63) / 64;
  const size_t num_blocks = 1024;
  std::vector<uint64_t> blocks(num_blocks * premise_words);
  for (uint64_t& w : blocks) {
    w = rng.NextUint64() & rng.NextUint64() & rng.NextUint64();
  }
  const PatternKey query = RandomKey(&rng, 0.3);
  size_t contained = 0;
  for (auto _ : state) {
    const uint64_t* block = blocks.data();
    for (size_t e = 0; e < num_blocks; ++e, block += premise_words) {
      if (wordops::Contains(query.premise().words(), block,
                            premise_words)) {
        ++contained;
      }
    }
    benchmark::DoNotOptimize(contained);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_blocks));
}
BENCHMARK(BM_PackedBlockContain);

}  // namespace
}  // namespace hpm

BENCHMARK_MAIN();
