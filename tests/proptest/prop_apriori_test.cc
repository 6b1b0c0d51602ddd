// Property suite: the tidset Apriori miner (MineTrajectoryPatterns)
// against a brute-force enumerator written from the miner's contract.
//
// The enumerator visits every time-ordered item set (ascending region
// ids, strictly increasing offsets) up to max_pattern_length and counts
// its support by scanning the transactions. Level by level it then
// applies the rules the miner documents:
//   - a level-k set is a counted candidate when every (k-1)-subset is
//     frequent and, for k >= 3 with a premise window, its premise (all
//     but the last item) spans at most the window;
//   - a candidate is frequent when its support reaches min_support;
//   - each frequent set of two or more items yields one rule, premise =
//     all but the last item, kept when its confidence reaches
//     min_confidence; with pruning off, every other split of the set
//     that reaches min_confidence is counted as a pruned rule.
// The miner must return the same patterns in the same order and with
// the same values, and every AprioriStats field equal. Row counts run
// from 1 to 200, with the 64- and 128-row tidset word edges drawn often.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mining/apriori.h"
#include "mining/transaction.h"
#include "proptest/proptest.h"
#include "proptest/shrink.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

struct MinerCase {
  /// Offset of region id i; non-decreasing, ties allowed (several
  /// regions at one offset), as region discovery assigns them.
  std::vector<Timestamp> offsets;
  /// Each transaction's visited region ids, unsorted, repeats allowed.
  std::vector<std::vector<int>> rows;
  AprioriParams params;
};

MinerCase GenMinerCase(Random& rng) {
  MinerCase c;
  const size_t num_regions = 1 + rng.Uniform(14);
  Timestamp offset = 0;
  for (size_t i = 0; i < num_regions; ++i) {
    if (i > 0 && !rng.Bernoulli(0.25)) offset += 1 + rng.Uniform(3);
    c.offsets.push_back(offset);
  }

  constexpr size_t kWordEdges[] = {63, 64, 65, 127, 128, 129};
  const size_t num_rows = rng.Bernoulli(0.4)
                              ? kWordEdges[rng.Uniform(std::size(kWordEdges))]
                              : 1 + rng.Uniform(200);
  // A few regions are visited often so that long sets turn frequent.
  std::vector<double> visit_probability(num_regions);
  for (double& p : visit_probability) {
    p = rng.Bernoulli(0.4) ? rng.UniformDouble(0.6, 0.95)
                           : rng.UniformDouble(0.0, 0.5);
  }
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<int> row;
    for (size_t id = 0; id < num_regions; ++id) {
      if (rng.Bernoulli(visit_probability[id])) {
        row.push_back(static_cast<int>(id));
        if (rng.Bernoulli(0.1)) row.push_back(static_cast<int>(id));
      }
    }
    for (size_t i = row.size(); i > 1; --i) {
      std::swap(row[i - 1], row[rng.Uniform(i)]);
    }
    c.rows.push_back(std::move(row));
  }

  c.params.min_support =
      1 + static_cast<int>(rng.Uniform(std::max<size_t>(1, num_rows / 3)));
  c.params.max_pattern_length = 2 + static_cast<int>(rng.Uniform(3));
  c.params.premise_window =
      rng.Bernoulli(0.5) ? 0 : static_cast<Timestamp>(1 + rng.Uniform(6));
  c.params.enable_pruning = rng.Bernoulli(0.5);
  c.params.min_confidence = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble(0, 1);
  return c;
}

FrequentRegionSet Regions(const std::vector<Timestamp>& offsets) {
  FrequentRegionSet set;
  set.set_period(offsets.back() + 1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    FrequentRegion r;
    r.id = static_cast<int>(i);
    r.offset = offsets[i];
    r.center = {static_cast<double>(i), 0};
    r.mbr.Extend(r.center);
    r.support = 1;
    set.AddRegion(r);
  }
  return set;
}

/// The brute-force enumerator described in the file comment.
class BruteForceMiner {
 public:
  explicit BruteForceMiner(const MinerCase& input) : input_(input) {
    for (const std::vector<int>& row : input.rows) {
      std::vector<char> has(input.offsets.size(), 0);
      for (int id : row) has[static_cast<size_t>(id)] = 1;
      rows_.push_back(std::move(has));
    }
  }

  AprioriResult Mine() const {
    AprioriResult result;
    const AprioriParams& params = input_.params;
    const int num_regions = static_cast<int>(input_.offsets.size());
    for (int id = 0; id < num_regions; ++id) {
      if (Support({id}) >= params.min_support) {
        ++result.stats.num_frequent_itemsets;
      }
    }
    for (int k = 2; k <= params.max_pattern_length; ++k) {
      // Every ascending k-set of region ids, in lexicographic order.
      std::vector<int> set(static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) set[static_cast<size_t>(i)] = i;
      while (k <= num_regions) {
        Visit(set, &result);
        int i = k - 1;
        while (i >= 0 && set[static_cast<size_t>(i)] == num_regions - k + i) {
          --i;
        }
        if (i < 0) break;
        ++set[static_cast<size_t>(i)];
        for (int m = i + 1; m < k; ++m) {
          set[static_cast<size_t>(m)] = set[static_cast<size_t>(m - 1)] + 1;
        }
      }
    }
    return result;
  }

 private:
  int Support(const std::vector<int>& items) const {
    int support = 0;
    for (const std::vector<char>& row : rows_) {
      bool all = true;
      for (int id : items) all = all && row[static_cast<size_t>(id)] != 0;
      if (all) ++support;
    }
    return support;
  }

  Timestamp Offset(int id) const {
    return input_.offsets[static_cast<size_t>(id)];
  }

  void Visit(const std::vector<int>& set, AprioriResult* result) const {
    const AprioriParams& params = input_.params;
    const size_t k = set.size();
    for (size_t i = 1; i < k; ++i) {
      if (Offset(set[i]) <= Offset(set[i - 1])) return;  // Not time-ordered.
    }
    if (params.premise_window > 0 && k >= 3 &&
        Offset(set[k - 2]) - Offset(set[0]) > params.premise_window) {
      return;
    }
    for (size_t drop = 0; drop < k; ++drop) {
      std::vector<int> subset;
      for (size_t m = 0; m < k; ++m) {
        if (m != drop) subset.push_back(set[m]);
      }
      if (Support(subset) < params.min_support) return;
    }
    ++result->stats.num_candidates_counted;
    const int support = Support(set);
    if (support < params.min_support) return;
    ++result->stats.num_frequent_itemsets;

    ++result->stats.rules_evaluated;
    const std::vector<int> premise(set.begin(), set.end() - 1);
    const double confidence =
        static_cast<double>(support) / Support(premise);
    if (confidence >= params.min_confidence) {
      result->patterns.push_back({premise, set.back(), confidence, support});
      ++result->stats.patterns_emitted;
    }
    if (params.enable_pruning) return;
    for (size_t mask = 1; mask + 1 < (size_t{1} << k); ++mask) {
      if (mask == size_t{1} << (k - 1)) continue;  // The rule above.
      std::vector<int> rest;
      size_t consequence_size = 0;
      for (size_t m = 0; m < k; ++m) {
        if (mask & (size_t{1} << m)) {
          ++consequence_size;
        } else {
          rest.push_back(set[m]);
        }
      }
      if (static_cast<double>(support) / Support(rest) <
          params.min_confidence) {
        continue;
      }
      if (consequence_size > 1) {
        ++result->stats.rules_pruned_multi_consequence;
      } else {
        ++result->stats.rules_pruned_time_order;
      }
    }
  }

  const MinerCase& input_;
  std::vector<std::vector<char>> rows_;
};

std::string Describe(const TrajectoryPattern& p) {
  char confidence[32];
  std::snprintf(confidence, sizeof(confidence), "%.17g", p.confidence);
  return p.ToString() + " confidence " + confidence + " support " +
         std::to_string(p.support);
}

std::string CompareStats(const AprioriStats& got, const AprioriStats& want) {
  const std::pair<const char*, std::pair<size_t, size_t>> fields[] = {
      {"num_frequent_itemsets",
       {got.num_frequent_itemsets, want.num_frequent_itemsets}},
      {"num_candidates_counted",
       {got.num_candidates_counted, want.num_candidates_counted}},
      {"rules_evaluated", {got.rules_evaluated, want.rules_evaluated}},
      {"rules_pruned_time_order",
       {got.rules_pruned_time_order, want.rules_pruned_time_order}},
      {"rules_pruned_multi_consequence",
       {got.rules_pruned_multi_consequence,
        want.rules_pruned_multi_consequence}},
      {"patterns_emitted", {got.patterns_emitted, want.patterns_emitted}},
  };
  for (const auto& [name, values] : fields) {
    if (values.first != values.second) {
      return std::string(name) + " is " + std::to_string(values.first) +
             ", brute force counts " + std::to_string(values.second);
    }
  }
  return "";
}

std::string CheckMinerCase(const MinerCase& input) {
  const FrequentRegionSet regions = Regions(input.offsets);
  std::vector<Transaction> transactions;
  for (const std::vector<int>& row : input.rows) {
    std::vector<RegionVisit> visits;
    for (int id : row) visits.push_back({0, id});
    transactions.emplace_back(visits, regions.NumRegions());
  }
  StatusOr<AprioriResult> got =
      MineTrajectoryPatterns(transactions, regions, input.params);
  if (!got.ok()) return "miner: " + got.status().ToString();
  const AprioriResult want = BruteForceMiner(input).Mine();

  const size_t common = std::min(got->patterns.size(), want.patterns.size());
  for (size_t i = 0; i < common; ++i) {
    const TrajectoryPattern& g = got->patterns[i];
    const TrajectoryPattern& w = want.patterns[i];
    if (g.premise != w.premise || g.consequence != w.consequence ||
        g.confidence != w.confidence || g.support != w.support) {
      return "pattern " + std::to_string(i) + " is " + Describe(g) +
             ", brute force has " + Describe(w);
    }
  }
  if (got->patterns.size() != want.patterns.size()) {
    return "mined " + std::to_string(got->patterns.size()) +
           " patterns, brute force " + std::to_string(want.patterns.size());
  }
  return CompareStats(got->stats, want.stats);
}

std::vector<MinerCase> ShrinkMinerCase(const MinerCase& input) {
  std::vector<MinerCase> out;
  for (std::vector<std::vector<int>>& fewer :
       proptest::ShrinkVector(input.rows)) {
    out.push_back({input.offsets, std::move(fewer), input.params});
  }
  return out;
}

std::string PrintMinerCase(const MinerCase& input) {
  std::string s = std::to_string(input.offsets.size()) + " regions, " +
                  std::to_string(input.rows.size()) + " rows, min_support " +
                  std::to_string(input.params.min_support) +
                  ", max_pattern_length " +
                  std::to_string(input.params.max_pattern_length) +
                  ", premise_window " +
                  std::to_string(input.params.premise_window) +
                  ", pruning " + (input.params.enable_pruning ? "on" : "off") +
                  ", min_confidence " +
                  std::to_string(input.params.min_confidence);
  return s;
}

TEST(PropAprioriTest, MinerMatchesBruteForceEnumeration) {
  Property<MinerCase> property("apriori-vs-brute-force", GenMinerCase,
                               CheckMinerCase);
  property.WithShrinker(ShrinkMinerCase).WithPrinter(PrintMinerCase);
  RunnerOptions options;
  options.num_cases = 400;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace hpm
