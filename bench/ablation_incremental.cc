// Ablation — Incremental incorporation vs full retraining (paper §V-B).
//
// The paper motivates TPT insertion with dynamic data: "when a certain
// amount of new data is accumulated, the system mines new patterns and
// adds them up to TPT by using the insertion algorithm". This bench
// quantifies that choice: starting from a model trained on 60
// sub-trajectories, fold in batches of new days either incrementally
// (WithNewHistory) or by retraining from scratch, and compare
// wall-clock cost and resulting accuracy.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

int main() {
  using namespace hpm;
  using namespace hpm::bench;

  PrintHeader("Ablation: incremental incorporation vs retrain (Section V-B)",
              "cost of folding new days into a trained model");

  for (const DatasetKind kind : {DatasetKind::kBike, DatasetKind::kCar}) {
    ExperimentConfig config;
    const Dataset& dataset = GetDataset(kind, config);
    const Timestamp period = config.period;

    TablePrinter table({"new_days", "incremental_ms", "retrain_ms",
                        "inc_patterns", "retrain_patterns", "inc_error",
                        "retrain_error"});
    for (const int batch : {2, 5, 10}) {
      // Incremental: train on 60, incorporate the next `batch` days.
      auto trained = TrainPredictor(dataset, config);
      auto new_days = dataset.trajectory.Slice(
          60 * period, (60 + batch) * period);
      HPM_CHECK(new_days.ok());
      Stopwatch inc_timer;
      auto updated = trained->WithNewHistory(*new_days);
      const double inc_ms = inc_timer.ElapsedMillis();
      HPM_CHECK(updated.ok());
      const HybridPredictor* incremental = updated->get();

      // Retrain: a fresh model over 60 + batch days.
      ExperimentConfig retrain_config = config;
      retrain_config.train_subs = 60 + batch;
      Stopwatch retrain_timer;
      auto retrained = TrainPredictor(dataset, retrain_config);
      const double retrain_ms = retrain_timer.ElapsedMillis();

      // Accuracy on the same held-out workload (days beyond 70).
      ExperimentConfig eval_config = config;
      eval_config.train_subs = 70;  // Held-out region starts at day 70.
      const auto cases = MakeWorkload(dataset, eval_config);
      const double inc_error = RunHpm(*incremental, cases).mean_error;
      const double retrain_error = RunHpm(*retrained, cases).mean_error;

      table.AddRow(
          {std::to_string(batch), Fmt(inc_ms, 1), Fmt(retrain_ms, 1),
           std::to_string(incremental->summary().num_patterns),
           std::to_string(retrained->summary().num_patterns),
           Fmt(inc_error), Fmt(retrain_error)});
    }
    std::printf("\n[%s]\n", DatasetName(kind));
    table.Print(stdout);
  }
  std::printf(
      "\nincremental_ms mines only the new days over the existing regions\n"
      "(no DBSCAN pass) and packs a fresh arena from the old leaves plus\n"
      "the new rules; retrain_ms rediscovers regions and re-mines all\n"
      "60 + new_days days. The pattern and error columns show what each\n"
      "model holds and how well it predicts the held-out days.\n");
  return 0;
}
