// CSV workflow: the full operational loop a deployment would run.
//
//   1. Export a GPS history to CSV (here: generated, standing in for a
//      real logger's output).
//   2. Load the CSV, train a predictor, persist the model to disk.
//   3. Later / elsewhere: load the model file and serve queries.
//   4. When new movement data accumulates, fold it in incrementally
//      (paper §V-B insertion) and re-persist.
//
// Usage:  csv_workflow [working_dir]     (default: /tmp)

#include <cstdio>
#include <string>

#include "core/hybrid_predictor.h"
#include "datagen/datasets.h"
#include "datagen/seed_generators.h"
#include "common/random.h"
#include "io/csv.h"

int main(int argc, char** argv) {
  using namespace hpm;
  const std::string dir = argc > 1 ? argv[1] : "/tmp";
  const std::string csv_path = dir + "/hpm_history.csv";
  const std::string model_path = dir + "/hpm_model.bin";

  // ---- 1. A "GPS logger" produces CSV. --------------------------------
  // A rider with two equally common routes between the same towns.
  PeriodicGeneratorConfig gen = DefaultConfig(DatasetKind::kBike);
  gen.period = 100;
  gen.num_sub_trajectories = 50;
  gen.time_jitter = 0;
  SeedConfig seed_config;
  seed_config.period = gen.period;
  seed_config.seed = 11;
  std::vector<SeedRoute> routes;
  routes.push_back({MakeBikeSeed(seed_config), 0.5});
  seed_config.seed = 12;
  routes.push_back({MakeBikeSeed(seed_config), 0.5});
  auto generated = GeneratePeriodicTrajectory(routes, gen);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteTrajectoryCsv(*generated, csv_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu samples to %s\n", generated->size(),
              csv_path.c_str());

  // ---- 2. Load, train, persist. ----------------------------------------
  auto history = ReadTrajectoryCsv(csv_path);
  if (!history.ok()) {
    std::fprintf(stderr, "%s\n", history.status().ToString().c_str());
    return 1;
  }
  HybridPredictorOptions options;
  options.regions.period = gen.period;
  options.regions.dbscan.eps = 30.0;
  options.regions.dbscan.min_pts = 4;
  options.regions.limit_sub_trajectories = 40;  // Keep 10 days unseen.
  options.mining.min_confidence = 0.3;
  options.distant_threshold = 25;
  options.region_match_slack = 20.0;
  auto trained = HybridPredictor::Train(*history, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*trained)->SaveToFile(model_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("trained (%zu patterns) and saved model to %s\n",
              (*trained)->summary().num_patterns, model_path.c_str());

  // ---- 3. A fresh process loads the model and serves a query. ---------
  auto served = HybridPredictor::LoadFromFile(model_path);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  const Timestamp now = 49 * gen.period + 30;  // A held-out day.
  PredictiveQuery query;
  query.recent_movements = history->RecentMovements(now, 8);
  query.current_time = now;
  query.query_time = now + 40;
  auto predictions = (*served)->Predict(query);
  if (!predictions.ok()) {
    std::fprintf(stderr, "%s\n", predictions.status().ToString().c_str());
    return 1;
  }
  const Point actual = history->At(query.query_time);
  std::printf("query from restored model: %s (actual %s, error %.1f)\n",
              predictions->front().ToString().c_str(),
              actual.ToString().c_str(),
              Distance(predictions->front().location, actual));

  // ---- 4. New data arrives; incorporate and re-persist. ---------------
  // The rider picks up a new habit: start on the usual route, switch to
  // the alternate one mid-ride. The regions already exist, but the
  // cross-route rules are new — exactly the paper's §V-B insertion case.
  Trajectory new_days;
  {
    Random switch_rng(31337);
    for (int day = 0; day < 8; ++day) {
      for (Timestamp t = 0; t < gen.period; ++t) {
        const auto& route =
            (t < gen.period / 2) ? routes[0] : routes[1];
        Point p = route.points[static_cast<size_t>(t)];
        p.x += switch_rng.Gaussian(0, gen.noise_sigma);
        p.y += switch_rng.Gaussian(0, gen.noise_sigma);
        new_days.Append(p);
      }
    }
  }
  auto updated = (*served)->WithNewHistory(new_days);
  if (!updated.ok()) {
    std::fprintf(stderr, "%s\n", updated.status().ToString().c_str());
    return 1;
  }
  const size_t total = (*updated)->summary().num_patterns;
  std::printf("incorporated 8 new (route-switching) days: %zu new patterns (total %zu)\n",
              total - (*served)->summary().num_patterns, total);
  if (Status s = (*updated)->SaveToFile(model_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("model re-persisted to %s\n", model_path.c_str());
  return 0;
}
