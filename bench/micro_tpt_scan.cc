// Micro-benchmarks for the TPT search hot loop: the mutable pointer tree
// vs the frozen arena, across pattern-set sizes and both search modes,
// plus the raw word-wise Intersect/Contain primitives on packed blocks.
// This is the bench behind the PR that introduced FrozenTpt — run it on
// both sides of a hot-loop change before trusting the fleet numbers.

#include <benchmark/benchmark.h>

#include <vector>

#include "bitset/word_ops.h"
#include "common/random.h"
#include "tpt/frozen_tpt.h"
#include "tpt/tpt_tree.h"

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

void BM_FrozenSearch(benchmark::State& state, SearchMode mode) {
  const std::vector<IndexedPattern> patterns =
      RandomPatterns(static_cast<int>(state.range(0)), 11);
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  HPM_CHECK(tree.ok());
  const FrozenTpt frozen = FrozenTpt::Freeze(*tree);
  const std::vector<PatternKey> queries = QueryPool(12);
  std::vector<FrozenTpt::Hit> hits;
  size_t q = 0;
  for (auto _ : state) {
    frozen.SearchInto(queries[q], mode, &hits);
    benchmark::DoNotOptimize(hits.data());
    q = (q + 1) % queries.size();
  }
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
BENCHMARK(BM_TptTreeSearchFqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FrozenTptSearchFqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TptTreeSearchBqp)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FrozenTptSearchBqp)->Arg(1000)->Arg(10000)->Arg(100000);

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
