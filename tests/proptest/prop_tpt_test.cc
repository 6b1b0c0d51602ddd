// Property suite: TptTree vs BruteForceStore (paper §V / Fig. 11b).
// The signature tree is an index, not a filter — on any pattern set and
// any query key it must return exactly the linear scan's result set, in
// both search modes.
// A deliberately corrupted tree (one flipped pattern-key bit) must be
// caught by the same differential check.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"
#include "tpt_reference/brute_force_store.h"
#include "tpt_reference/pattern_sets.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

struct TptCase {
  std::vector<IndexedPattern> patterns;
  std::vector<PatternKey> queries;
};

std::vector<int> SortedIds(const std::vector<const IndexedPattern*>& hits) {
  std::vector<int> ids;
  ids.reserve(hits.size());
  for (const IndexedPattern* hit : hits) ids.push_back(hit->pattern_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ModeName(SearchMode mode) {
  return mode == SearchMode::kPremiseAndConsequence ? "FQP" : "BQP";
}

/// The differential oracle: every query must retrieve identical pattern
/// sets from the tree and the linear scan, under both search modes.
std::string DifferentialFailure(const TptTree& tpt,
                                const BruteForceStore& brute,
                                const std::vector<PatternKey>& queries) {
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const SearchMode mode : {SearchMode::kPremiseAndConsequence,
                                  SearchMode::kConsequenceOnly}) {
      const std::vector<int> tree_ids =
          SortedIds(tpt.Search(queries[q], mode));
      const std::vector<int> scan_ids =
          SortedIds(brute.Search(queries[q], mode));
      if (tree_ids != scan_ids) {
        return "query " + std::to_string(q) + " (" + queries[q].ToString() +
               ", " + ModeName(mode) + ") returned " +
               std::to_string(tree_ids.size()) + " patterns from the TPT vs " +
               std::to_string(scan_ids.size()) + " from the brute-force scan";
      }
    }
  }
  return "";
}

TptCase GenCase(Random& rng) {
  TptCase c;
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

std::string CheckDifferential(const TptCase& input) {
  // Small node capacities force multi-level trees even on small sets.
  TptTree::Options tree_options;
  tree_options.max_node_entries = 6;
  tree_options.min_node_entries = 2;
  StatusOr<TptTree> tpt = TptTree::BulkLoad(input.patterns, tree_options);
  if (!tpt.ok()) return "BulkLoad failed: " + tpt.status().ToString();
  BruteForceStore brute;
  for (const IndexedPattern& pattern : input.patterns) {
    const Status status = brute.Insert(pattern);
    if (!status.ok()) return "brute Insert failed: " + status.ToString();
  }

  const Status invariants = tpt->CheckInvariants();
  if (!invariants.ok()) {
    return "TPT invariants broken after bulk load: " + invariants.ToString();
  }
  return DifferentialFailure(*tpt, brute, input.queries);
}

std::vector<TptCase> ShrinkCase(const TptCase& input) {
  std::vector<TptCase> out;
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

TEST(PropTptTest, SearchMatchesBruteForceOnRandomPatternSets) {
  Property<TptCase> property("tpt-vs-brute-force", GenCase,
                             CheckDifferential);
  property.WithShrinker(ShrinkCase);
  RunnerOptions options;
  options.num_cases = 60;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// Fault injection: flip one premise bit of one pattern's key on the copy
// that goes into the TPT. The differential oracle must flag the
// discrepancy — this is the suite proving the harness has teeth.
TEST(PropTptTest, CatchesInjectedKeyMutation) {
  Random rng(proptest::SeedForTest(20260805));
  SCOPED_TRACE(proptest::ReplayLine(proptest::SeedForTest(20260805)));
  const size_t premise_length = 12;
  const size_t consequence_length = 3;
  std::vector<IndexedPattern> patterns = proptest::RandomPatternSet(
      rng, 40, premise_length, consequence_length, 0.25);

  // Pick a victim and the premise bit to flip.
  const size_t victim = rng.Uniform(patterns.size());
  const std::vector<size_t> set_bits =
      patterns[victim].key.premise().SetBits();
  const size_t flipped_bit = set_bits[rng.Uniform(set_bits.size())];

  BruteForceStore brute;
  for (const IndexedPattern& pattern : patterns) {
    ASSERT_TRUE(brute.Insert(pattern).ok());
  }
  std::vector<IndexedPattern> mutated = patterns;
  mutated[victim].key.mutable_premise().Set(flipped_bit, false);
  StatusOr<TptTree> tpt = TptTree::BulkLoad(std::move(mutated));
  ASSERT_TRUE(tpt.ok()) << tpt.status().ToString();

  // Probe whose only premise '1' is the flipped bit: the scan still
  // matches the victim, the corrupted tree cannot.
  DynamicBitset probe_premise(premise_length);
  probe_premise.Set(flipped_bit);
  const PatternKey probe(probe_premise, patterns[victim].key.consequence());
  const std::string failure = DifferentialFailure(*tpt, brute, {probe});
  EXPECT_FALSE(failure.empty())
      << "differential oracle missed a flipped pattern-key bit";
}

}  // namespace
}  // namespace hpm
