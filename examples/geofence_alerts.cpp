// Geofence alerts: predictive monitoring on the MovingObjectStore.
//
// A dispatcher asks "which vans are predicted to be inside the depot
// zone forty ticks from now?" once per tick, with one predictive range
// query, and reports the vans that entered or left that set since the
// previous tick as location reports stream in. The same fleet is also
// asked for the predicted nearest vans to an incident location
// (predictive k-NN).
//
// Build & run:  ./build/examples/geofence_alerts

#include <cstdio>
#include <set>

#include "common/random.h"
#include "common/table_printer.h"
#include "datagen/periodic_generator.h"
#include "datagen/seed_generators.h"
#include "server/object_store.h"

int main() {
  using namespace hpm;

  constexpr Timestamp kPeriod = 180;
  constexpr int kDays = 40;
  constexpr int kFleet = 4;

  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 30.0;
  options.predictor.regions.dbscan.min_pts = 4;
  options.predictor.mining.min_confidence = 0.3;
  options.predictor.distant_threshold = 30;
  options.predictor.region_match_slack = 25.0;
  options.min_training_periods = kDays;
  MovingObjectStore store(options);

  // Historical ingestion: 40 days per van.
  std::vector<Trajectory> live_days;
  for (int v = 0; v < kFleet; ++v) {
    SeedConfig seed;
    seed.period = kPeriod;
    seed.seed = 300 + static_cast<uint64_t>(v);
    PeriodicGeneratorConfig gen;
    gen.period = kPeriod;
    gen.num_sub_trajectories = kDays + 1;
    gen.pattern_probability = 0.9;
    gen.seed = 4400 + static_cast<uint64_t>(v);
    auto history =
        GeneratePeriodicTrajectory({{MakeCarSeed(seed), 1.0}}, gen);
    if (!history.ok()) {
      std::fprintf(stderr, "%s\n", history.status().ToString().c_str());
      return 1;
    }
    auto past = history->Slice(0, kDays * kPeriod);
    if (Status s = store.ReportTrajectory(v, *past); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    auto today = history->Slice(kDays * kPeriod,
                                (kDays + 1) * static_cast<long>(kPeriod));
    live_days.push_back(std::move(*today));
  }
  std::printf("fleet of %d vans trained on %d days each\n\n", kFleet,
              kDays);

  // The geofence: van 0's *habitual* location at tick 140 — the centre
  // of its mined frequent region there — watched 40 ticks ahead.
  auto van0 = store.GetPredictor(0);
  if (!van0.ok()) {
    std::fprintf(stderr, "%s\n", van0.status().ToString().c_str());
    return 1;
  }
  const auto regions_at_140 = (*van0)->regions().RegionsAtOffset(140);
  if (regions_at_140.empty()) {
    std::fprintf(stderr, "van 0 has no frequent region at offset 140\n");
    return 1;
  }
  const Point depot =
      (*van0)->regions().Region(regions_at_140[0]).center;
  const BoundingBox zone(depot - Point{500, 500}, depot + Point{500, 500});
  constexpr Timestamp kHorizon = 40;
  std::printf("geofence: %.0fx%.0f zone around (%.0f, %.0f), "
              "horizon +%ld\n\n",
              1000.0, 1000.0, depot.x, depot.y,
              static_cast<long>(kHorizon));

  // Live morning: stream the first 120 ticks of today for every van,
  // then ask which vans are predicted inside the zone 40 ticks ahead.
  // A van that joins that set since the previous tick entered the zone,
  // and one that drops out of it left.
  std::set<ObjectId> inside;
  int alerts = 0;
  for (Timestamp t = 0; t < 120; ++t) {
    for (int v = 0; v < kFleet; ++v) {
      if (Status s = store.ReportLocation(v, live_days[v].At(t));
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    const Timestamp at = static_cast<Timestamp>(kDays) * kPeriod + t +
                         kHorizon;
    auto in_zone = store.PredictiveRangeQuery(zone, at);
    if (!in_zone.ok()) {
      std::fprintf(stderr, "%s\n", in_zone.status().ToString().c_str());
      return 1;
    }
    std::set<ObjectId> inside_now;
    for (const RangeHit& hit : in_zone->hits) {
      inside_now.insert(hit.id);
      if (inside.count(hit.id) > 0) continue;
      ++alerts;
      std::printf("  tick %3ld: van #%ld predicted to ENTER the zone "
                  "(for t=%ld via %s)\n",
                  static_cast<long>(t), static_cast<long>(hit.id),
                  static_cast<long>(at),
                  hit.prediction.source == PredictionSource::kPattern
                      ? "pattern"
                      : "motion");
    }
    for (const ObjectId id : inside) {
      if (inside_now.count(id) > 0) continue;
      ++alerts;
      std::printf("  tick %3ld: van #%ld predicted to LEAVE the zone "
                  "(for t=%ld)\n",
                  static_cast<long>(t), static_cast<long>(id),
                  static_cast<long>(at));
    }
    inside = std::move(inside_now);
  }
  std::printf("\n%d geofence alerts emitted during the morning\n\n",
              alerts);

  // Incident dispatch: which vans will be nearest to a breakdown site
  // 15 ticks from now?
  const Point incident = live_days[2].At(130);
  const Timestamp now = static_cast<Timestamp>(kDays) * kPeriod + 119;
  auto nearest = store.PredictiveNearestNeighbors(incident, now + 15, 3);
  if (!nearest.ok()) {
    std::fprintf(stderr, "%s\n", nearest.status().ToString().c_str());
    return 1;
  }
  std::printf("nearest vans to the incident at t+15:\n");
  TablePrinter table({"rank", "van", "predicted_location",
                      "distance_to_incident"});
  int rank = 1;
  for (const RangeHit& hit : nearest->hits) {
    table.AddRow({std::to_string(rank++),
                  "#" + std::to_string(hit.id),
                  hit.prediction.location.ToString(),
                  TablePrinter::FormatDouble(
                      Distance(hit.prediction.location, incident), 1)});
  }
  table.Print(stdout);
  return 0;
}
