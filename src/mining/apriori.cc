#include "mining/apriori.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>

#include "bitset/word_ops.h"

namespace hpm {

namespace {

/// The frequent item sets of one Apriori level k, stored flat: set s has
/// items [s*k, (s+1)*k) (ascending ids), tidset words
/// [s*num_words, (s+1)*num_words) and support supports[s].
struct Level {
  std::vector<int> items;
  std::vector<uint64_t> tids;
  std::vector<int> supports;

  size_t size() const { return supports.size(); }
};

/// Transactions containing every item of `items`: the popcount of the
/// AND of the items' tidsets (`num_words` words each, in `region_tids`).
int SupportOfItems(const std::vector<int>& items,
                   const std::vector<uint64_t>& region_tids, size_t num_words) {
  int support = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t word = ~uint64_t{0};
    for (int item : items) {
      word &= region_tids[static_cast<size_t>(item) * num_words + w];
    }
    support += std::popcount(word);
  }
  return support;
}

}  // namespace

std::string TrajectoryPattern::ToString() const {
  std::string s;
  for (size_t i = 0; i < premise.size(); ++i) {
    if (i > 0) s += " ^ ";
    s += "R" + std::to_string(premise[i]);
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), " -(%.2f)-> R%d", confidence, consequence);
  s += buf;
  return s;
}

StatusOr<AprioriResult> MineTrajectoryPatterns(
    const std::vector<Transaction>& transactions,
    const FrequentRegionSet& regions, const AprioriParams& params) {
  if (params.min_confidence < 0.0 || params.min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in [0,1]");
  }
  if (params.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (params.max_pattern_length < 2) {
    return Status::InvalidArgument("max_pattern_length must be >= 2");
  }
  if (params.premise_window < 0) {
    return Status::InvalidArgument("premise_window must be >= 0");
  }

  AprioriResult result;
  const size_t num_regions = regions.NumRegions();
  if (num_regions == 0 || transactions.empty()) return result;

  // --- Tidsets: bit r of region i's set <=> transaction r contains i. --
  const size_t num_words = (transactions.size() + 63) / 64;
  std::vector<uint64_t> region_tids(num_regions * num_words, 0);
  for (size_t r = 0; r < transactions.size(); ++r) {
    const uint64_t bit = uint64_t{1} << (r % 64);
    for (int item : transactions[r].items()) {
      region_tids[static_cast<size_t>(item) * num_words + r / 64] |= bit;
    }
  }
  std::vector<Timestamp> offset(num_regions);
  for (size_t id = 0; id < num_regions; ++id) {
    offset[id] = regions.Region(static_cast<int>(id)).offset;
  }

  // --- Level 1: frequent single regions. -------------------------------
  Level previous;
  for (size_t id = 0; id < num_regions; ++id) {
    const uint64_t* tids = region_tids.data() + id * num_words;
    const int support = static_cast<int>(wordops::Popcount(tids, num_words));
    if (support < params.min_support) continue;
    previous.items.push_back(static_cast<int>(id));
    previous.tids.insert(previous.tids.end(), tids, tids + num_words);
    previous.supports.push_back(support);
  }
  result.stats.num_frequent_itemsets += previous.size();

  // --- Levels k >= 2: join, prune, count; emit each set's rule. --------
  // A level is in lexicographic item order, and a join of i < j appends
  // j's last item to i, so every level — and the rule stream — comes out
  // in (size, items) order.
  std::vector<int> subset;
  for (int k = 2; k <= params.max_pattern_length && previous.size() > 1;
       ++k) {
    const size_t parent_width = static_cast<size_t>(k - 1);
    const size_t prefix = parent_width - 1;  // Items a join's parents share.
    Level current;
    for (size_t i = 0; i < previous.size(); ++i) {
      const int* a = previous.items.data() + i * parent_width;
      const Timestamp a_last = offset[static_cast<size_t>(a[prefix])];
      // The candidate's premise is exactly `a`: bound its offset span.
      if (params.premise_window > 0 && k >= 3 &&
          a_last - offset[static_cast<size_t>(a[0])] > params.premise_window) {
        continue;
      }
      for (size_t j = i + 1; j < previous.size(); ++j) {
        const int* b = previous.items.data() + j * parent_width;
        // Classic Apriori join: equal prefixes, differing last item.
        // Sorted order means no later j can share the prefix either.
        if (!std::equal(a, a + prefix, b)) break;
        const int last = b[prefix];

        // Trajectory constraint: strictly increasing offsets (pruning
        // rule 1 applied during generation). `a` is already time-ordered,
        // so only the appended item needs checking.
        if (offset[static_cast<size_t>(last)] <= a_last) continue;

        // Downward closure: the (k-1)-subsets other than the parents
        // (drop any of the first k-2 items) must be frequent. Counting
        // them also covers subsets the window constraint kept off a level.
        bool closed = true;
        for (size_t drop = 0; drop < prefix && closed; ++drop) {
          subset.clear();
          for (size_t m = 0; m < parent_width; ++m) {
            if (m != drop) subset.push_back(a[m]);
          }
          subset.push_back(last);
          closed = SupportOfItems(subset, region_tids, num_words) >=
                   params.min_support;
        }
        if (!closed) continue;

        ++result.stats.num_candidates_counted;
        const size_t at = current.tids.size();
        current.tids.resize(at + num_words);
        uint64_t* tids = current.tids.data() + at;
        const uint64_t* a_tids = previous.tids.data() + i * num_words;
        const uint64_t* b_tids = previous.tids.data() + j * num_words;
        int support = 0;
        for (size_t w = 0; w < num_words; ++w) {
          tids[w] = a_tids[w] & b_tids[w];
          support += std::popcount(tids[w]);
        }
        if (support < params.min_support) {
          current.tids.resize(at);
          continue;
        }
        const size_t first_item = current.items.size();
        current.items.insert(current.items.end(), a, a + parent_width);
        current.items.push_back(last);
        current.supports.push_back(support);

        // The single prediction-form rule: premise = parent `a` (all but
        // the last, max-offset item), consequence = the last item.
        ++result.stats.rules_evaluated;
        const double confidence =
            static_cast<double>(support) / previous.supports[i];
        if (confidence >= params.min_confidence) {
          TrajectoryPattern p;
          p.premise.assign(a, a + parent_width);
          p.consequence = last;
          p.confidence = confidence;
          p.support = support;
          result.patterns.push_back(std::move(p));
          ++result.stats.patterns_emitted;
        }

        // Ablation accounting: how many rules classic (unpruned) Apriori
        // would additionally have produced from this item set.
        if (!params.enable_pruning) {
          // Consequence = the items in `mask`, premise = the rest.
          const int* items = current.items.data() + first_item;
          const size_t width = parent_width + 1;
          const size_t num_partitions = (size_t{1} << width) - 2;
          for (size_t mask = 1; mask <= num_partitions; ++mask) {
            // Skip the valid prediction-form rule counted above.
            if (mask == size_t{1} << parent_width) continue;
            subset.clear();
            for (size_t m = 0; m < width; ++m) {
              if ((mask & (size_t{1} << m)) == 0) subset.push_back(items[m]);
            }
            const double c =
                static_cast<double>(support) /
                SupportOfItems(subset, region_tids, num_words);
            if (c < params.min_confidence) continue;
            if (std::popcount(mask) > 1) {
              ++result.stats.rules_pruned_multi_consequence;
            } else {
              ++result.stats.rules_pruned_time_order;
            }
          }
        }
      }
    }
    result.stats.num_frequent_itemsets += current.size();
    previous = std::move(current);
  }
  return result;
}

}  // namespace hpm
