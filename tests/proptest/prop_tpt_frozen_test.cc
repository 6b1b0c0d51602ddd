// Property suite: the arena TptTree::Freeze emits vs the insertion-built
// pointer tree it came from (the reference prop_tpt_pack_test checks the
// packed arena against). The arena layout is a pure representation
// change — on any pattern set
// and any query key, Search must return *bit-identical* results: the
// same pattern ids in the same order, the same confidences and
// consequence regions, arena key words equal to the builder key's words
// (the premise words are what the predictor scores from), and the same
// TptSearchStats-visible pruning (nodes_visited/entries_tested), in both
// search modes. The same must
// hold for a frozen tree that made a round trip through its wire form
// (AppendTo -> Parse).

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "tpt/frozen_tpt.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

struct FrozenCase {
  std::vector<IndexedPattern> patterns;
  std::vector<PatternKey> queries;
};

std::string ModeName(SearchMode mode) {
  return mode == SearchMode::kPremiseAndConsequence ? "FQP" : "BQP";
}

/// Exact-order, exact-payload comparison of one query's results plus the
/// layout-independent stats fields. `label` names the frozen variant
/// ("frozen", "reparsed") in failure messages.
std::string CompareSearch(const TptTree& tree, const FrozenTpt& frozen,
                          const PatternKey& query, SearchMode mode,
                          const std::string& label) {
  TptSearchStats tree_stats, frozen_stats;
  const std::vector<const IndexedPattern*> tree_hits =
      tree.Search(query, mode, &tree_stats);
  const std::vector<FrozenTpt::Hit> frozen_hits =
      frozen.Search(query, mode, &frozen_stats);

  const std::string what = label + " " + ModeName(mode) + " search ";
  if (tree_hits.size() != frozen_hits.size()) {
    return what + "returned " + std::to_string(frozen_hits.size()) +
           " hits, mutable tree " + std::to_string(tree_hits.size());
  }
  for (size_t i = 0; i < tree_hits.size(); ++i) {
    const IndexedPattern& want = *tree_hits[i];
    const LeafPayload& got = frozen.payload(frozen_hits[i]);
    if (want.pattern_id != got.pattern_id) {
      return what + "hit " + std::to_string(i) + " is pattern " +
             std::to_string(got.pattern_id) + ", mutable tree " +
             std::to_string(want.pattern_id) + " (order must be identical)";
    }
    if (want.confidence != got.confidence ||
        want.consequence_region != got.consequence_region) {
      return what + "hit " + std::to_string(i) +
             " payload differs from the mutable tree's";
    }
    if (frozen.num_premise_words() != want.key.premise().num_words() ||
        std::memcmp(frozen.premise_words(frozen_hits[i]),
                    want.key.premise().words(),
                    frozen.num_premise_words() * sizeof(uint64_t)) != 0) {
      return what + "hit " + std::to_string(i) +
             " arena premise words differ from the builder key's";
    }
    if (!(frozen.KeyOf(frozen_hits[i]) == want.key)) {
      return what + "hit " + std::to_string(i) +
             " arena key differs from the builder key";
    }
  }
  if (tree_stats.nodes_visited != frozen_stats.nodes_visited ||
      tree_stats.entries_tested != frozen_stats.entries_tested) {
    return what + "visited " + std::to_string(frozen_stats.nodes_visited) +
           " nodes / tested " + std::to_string(frozen_stats.entries_tested) +
           " entries, mutable tree " +
           std::to_string(tree_stats.nodes_visited) + " / " +
           std::to_string(tree_stats.entries_tested) +
           " (pruning must be identical)";
  }
  // blocks_scanned is the frozen layout's own cost metric: zero on the
  // pointer tree, and between one part-scan per tested entry (BQP, or
  // FQP with every consequence test failing) and two (FQP with every
  // consequence test passing).
  if (tree_stats.blocks_scanned != 0) {
    return what + "mutable tree reported nonzero blocks_scanned";
  }
  const size_t lo = frozen_stats.entries_tested;
  const size_t hi = mode == SearchMode::kPremiseAndConsequence
                        ? 2 * frozen_stats.entries_tested
                        : frozen_stats.entries_tested;
  if (frozen_stats.blocks_scanned < lo || frozen_stats.blocks_scanned > hi) {
    return what + "blocks_scanned " +
           std::to_string(frozen_stats.blocks_scanned) +
           " outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "] for " + std::to_string(frozen_stats.entries_tested) +
           " entries tested";
  }
  return "";
}

FrozenCase GenCase(Random& rng) {
  FrozenCase c;
  const size_t premise_length = 4 + rng.Uniform(24);
  const size_t consequence_length = 1 + rng.Uniform(6);
  const int count = static_cast<int>(rng.Uniform(120));
  const double density = rng.UniformDouble(0.05, 0.5);
  c.patterns = proptest::RandomPatternSet(rng, count, premise_length,
                                          consequence_length, density);
  const int num_queries = static_cast<int>(4 + rng.Uniform(8));
  for (int i = 0; i < num_queries; ++i) {
    c.queries.push_back(proptest::RandomPatternKey(
        rng, premise_length, consequence_length, rng.UniformDouble(0.05, 0.4)));
  }
  // Exact keys of a few patterns, so matches are guaranteed to occur.
  for (size_t i = 0; i < c.patterns.size() && i < 4; ++i) {
    c.queries.push_back(c.patterns[i * c.patterns.size() / 4].key);
  }
  return c;
}

std::string CheckFrozenDifferential(const FrozenCase& input) {
  // Small node capacities force multi-level trees even on small sets.
  TptTree::Options tree_options;
  tree_options.max_node_entries = 6;
  tree_options.min_node_entries = 2;
  StatusOr<TptTree> tree = TptTree::BulkLoad(input.patterns, tree_options);
  if (!tree.ok()) return "BulkLoad failed: " + tree.status().ToString();

  const FrozenTpt frozen = tree->Freeze();
  if (frozen.size() != tree->size()) {
    return "Freeze kept " + std::to_string(frozen.size()) +
           " patterns, expected " + std::to_string(tree->size());
  }
  if (frozen.Height() != tree->Height()) {
    return "Freeze height " + std::to_string(frozen.Height()) +
           " != builder height " + std::to_string(tree->Height());
  }
  Status invariants = frozen.CheckInvariants();
  if (!invariants.ok()) {
    return "frozen invariants broken after Freeze: " + invariants.ToString();
  }

  // Wire-format round trip must reproduce the frozen tree exactly.
  std::string wire;
  frozen.AppendTo(&wire);
  size_t consumed = 0;
  StatusOr<FrozenTpt> reparsed =
      FrozenTpt::Parse(wire.data(), wire.size(), &consumed);
  if (!reparsed.ok()) {
    return "Parse of freshly serialized arena failed: " +
           reparsed.status().ToString();
  }
  if (consumed != wire.size()) {
    return "Parse consumed " + std::to_string(consumed) + " of " +
           std::to_string(wire.size()) + " section bytes";
  }
  invariants = reparsed->CheckInvariants();
  if (!invariants.ok()) {
    return "frozen invariants broken after Parse: " + invariants.ToString();
  }

  for (size_t q = 0; q < input.queries.size(); ++q) {
    for (const SearchMode mode : {SearchMode::kPremiseAndConsequence,
                                  SearchMode::kConsequenceOnly}) {
      const std::string at = "query " + std::to_string(q) + ": ";
      std::string failure =
          CompareSearch(*tree, frozen, input.queries[q], mode, "frozen");
      if (!failure.empty()) return at + failure;
      failure = CompareSearch(*tree, *reparsed, input.queries[q], mode,
                              "reparsed");
      if (!failure.empty()) return at + failure;
    }
  }
  return "";
}

std::vector<FrozenCase> ShrinkCase(const FrozenCase& input) {
  std::vector<FrozenCase> out;
  for (std::vector<IndexedPattern>& fewer :
       proptest::ShrinkVector(input.patterns)) {
    // Keep ids dense so the id comparison stays meaningful.
    for (size_t i = 0; i < fewer.size(); ++i) {
      fewer[i].pattern_id = static_cast<int>(i);
    }
    out.push_back({std::move(fewer), input.queries});
  }
  for (std::vector<PatternKey>& fewer :
       proptest::ShrinkVector(input.queries)) {
    if (!fewer.empty()) out.push_back({input.patterns, std::move(fewer)});
  }
  return out;
}

TEST(PropTptFrozenTest, FrozenSearchIsBitIdenticalToMutableTree) {
  Property<FrozenCase> property("frozen-tpt-vs-mutable", GenCase,
                                CheckFrozenDifferential);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 60;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// The default-capacity tree (32-entry nodes) exercises the wide-node
// packed-block scan; a quick fixed-seed pass proves the property is not
// an artifact of the tiny test capacities above.
TEST(PropTptFrozenTest, FrozenSearchMatchesAtDefaultNodeCapacity) {
  Random rng(proptest::SeedForTest(20260805));
  SCOPED_TRACE(proptest::ReplayLine(proptest::SeedForTest(20260805)));
  std::vector<IndexedPattern> patterns =
      proptest::RandomPatternSet(rng, 400, 48, 8, 0.2);
  StatusOr<TptTree> tree = TptTree::BulkLoad(patterns);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const FrozenTpt frozen = tree->Freeze();
  for (int i = 0; i < 32; ++i) {
    const PatternKey query =
        proptest::RandomPatternKey(rng, 48, 8, rng.UniformDouble(0.05, 0.4));
    for (const SearchMode mode : {SearchMode::kPremiseAndConsequence,
                                  SearchMode::kConsequenceOnly}) {
      const std::string failure =
          CompareSearch(*tree, frozen, query, mode, "frozen");
      EXPECT_EQ(failure, "");
    }
  }
}

}  // namespace
}  // namespace hpm
