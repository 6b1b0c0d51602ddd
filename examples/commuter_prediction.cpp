// Commuter prediction: the paper's running "Jane" example (Fig. 3,
// Tables I-III, §VI-B), built from raw trajectory data.
//
// Jane leaves home every morning; on most days she drives through the
// city to work, on the rest she passes the shopping centre on the way to
// the beach. This example:
//   * generates her movement history from those two routes,
//   * mines her frequent regions and trajectory patterns,
//   * prints the region-key / consequence-key / pattern-key tables the
//     paper shows (Tables I-III),
//   * answers the §VI-B query ("she just left home and crossed the city
//     — where will she be at offset 2?") and shows the FQP ranking.
//
// Build & run:  ./build/examples/commuter_prediction

#include <cstdio>

#include "common/random.h"
#include "common/table_printer.h"
#include "core/hybrid_predictor.h"

namespace {

using namespace hpm;

constexpr Timestamp kPeriod = 3;  // Offsets: 0 = home, 1 = via, 2 = goal.

const Point kHome{1000, 1000};
const Point kCity{3000, 3000};
const Point kShopping{3000, 1000};
const Point kWork{5000, 3000};
const Point kBeach{5000, 1000};

/// 60 days: 60% city->work, 30% shopping->beach, 10% erratic.
Trajectory MakeJaneHistory() {
  Random rng(2008);  // ICDE 2008.
  Trajectory traj;
  auto jitter = [&rng](const Point& p) {
    return Point{p.x + rng.Gaussian(0, 20), p.y + rng.Gaussian(0, 20)};
  };
  for (int day = 0; day < 60; ++day) {
    const double dice = rng.NextDouble();
    if (dice < 0.6) {
      traj.Append(jitter(kHome));
      traj.Append(jitter(kCity));
      traj.Append(jitter(kWork));
    } else if (dice < 0.9) {
      traj.Append(jitter(kHome));
      traj.Append(jitter(kShopping));
      traj.Append(jitter(kBeach));
    } else {
      for (int t = 0; t < 3; ++t) {
        traj.Append({rng.UniformDouble(0, 10000),
                     rng.UniformDouble(0, 10000)});
      }
    }
  }
  return traj;
}

const char* PlaceName(const Point& center) {
  struct Named {
    Point p;
    const char* name;
  };
  static const Named places[] = {{kHome, "Home"},
                                 {kCity, "City"},
                                 {kShopping, "Shopping centre"},
                                 {kWork, "Work place"},
                                 {kBeach, "Beach"}};
  const char* best = "?";
  double best_d = 1e18;
  for (const auto& place : places) {
    const double d = Distance(place.p, center);
    if (d < best_d) {
      best_d = d;
      best = place.name;
    }
  }
  return best;
}

}  // namespace

int main() {
  const Trajectory history = MakeJaneHistory();

  HybridPredictorOptions options;
  options.regions.period = kPeriod;
  options.regions.dbscan.eps = 100.0;
  options.regions.dbscan.min_pts = 5;
  options.mining.min_confidence = 0.2;
  options.mining.min_support = 5;
  options.mining.max_pattern_length = 3;
  options.distant_threshold = 2;
  options.region_match_slack = 60.0;

  auto trained = HybridPredictor::Train(history, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const auto& predictor = *trained;
  const FrequentRegionSet& regions = predictor->regions();
  const KeyTables& tables = predictor->key_tables();

  // ---- Table I: region keys. ------------------------------------------
  std::printf("Table I - region keys (hash 2^id)\n");
  TablePrinter region_table(
      {"frequent_region", "place", "offset", "region_id", "region_key"});
  for (const FrequentRegion& r : regions.regions()) {
    DynamicBitset key(regions.NumRegions());
    key.Set(static_cast<size_t>(r.id));
    region_table.AddRow({"R" + std::to_string(r.offset) + "^" +
                             std::to_string(r.index_at_offset),
                         PlaceName(r.center), std::to_string(r.offset),
                         std::to_string(r.id), key.ToString()});
  }
  region_table.Print(stdout);

  // ---- Table II: consequence keys. ------------------------------------
  std::printf("\nTable II - consequence keys\n");
  TablePrinter cons_table({"time_offset", "time_id", "consequence_key"});
  for (size_t id = 0; id < tables.consequence_key_length(); ++id) {
    DynamicBitset key(tables.consequence_key_length());
    key.Set(id);
    cons_table.AddRow(
        {std::to_string(tables.OffsetForTimeId(static_cast<int>(id))),
         std::to_string(id), key.ToString()});
  }
  cons_table.Print(stdout);

  // ---- Table III: trajectory patterns and their pattern keys. ---------
  std::printf("\nTable III - trajectory patterns\n");
  TablePrinter pattern_table({"trajectory_pattern", "confidence",
                              "pattern_key", "consequence_place"});
  const std::vector<TrajectoryPattern> patterns = predictor->PatternTable();
  const KeyBlocks keys = tables.EncodePatterns(patterns, regions);
  for (size_t i = 0; i < patterns.size(); ++i) {
    const TrajectoryPattern& p = patterns[i];
    pattern_table.AddRow(
        {p.ToString(), TablePrinter::FormatDouble(p.confidence, 2),
         keys.Key(i).ToString(),
         PlaceName(regions.Region(p.consequence).center)});
  }
  pattern_table.Print(stdout);

  // ---- The §VI-B query. ------------------------------------------------
  // Day 60 (fresh), Jane was home at offset 0 and in the city at offset
  // 1; where is she at offset 2?
  PredictiveQuery query;
  const Timestamp base = 60 * kPeriod;
  query.recent_movements = {{base + 0, kHome}, {base + 1, kCity}};
  query.current_time = base + 1;
  query.query_time = base + 2;
  query.k = 2;

  auto predictions = predictor->ForwardQuery(query);
  if (!predictions.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 predictions.status().ToString().c_str());
    return 1;
  }
  std::printf("\nSection VI-B query: home -> city, where at offset 2?\n");
  for (const Prediction& p : *predictions) {
    std::printf("  %s  [%s]\n", p.ToString().c_str(),
                p.source == PredictionSource::kPattern
                    ? PlaceName(p.location)
                    : "extrapolated");
  }
  std::printf(
      "\nAs in the paper, the work place outranks the beach because the\n"
      "premise (home AND city) matches fully while the beach pattern\n"
      "matches only on 'home', which carries the lower position weight.\n");
  return 0;
}
