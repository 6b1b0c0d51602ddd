// Figure 10 — Query Response Time (paper §VII-C).
//
// Sweeps the training history (10..100 sub-trajectories) and reports the
// mean per-query response time of HPM and RMF (30 queries averaged, as
// in the paper). Expected shape: HPM's cost falls as more patterns are
// discovered (fewer RMF fallback calls, each of which pays the O(n^3)
// SVD fitting); RMF's cost is flat and higher.

#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"

int main() {
  using namespace hpm;
  using namespace hpm::bench;

  PrintHeader("Figure 10: Query Response Time",
              "mean response time (ms) vs number of sub-trajectories, "
              "HPM vs RMF, 4 datasets (30 queries averaged)");

  for (const DatasetKind kind : AllDatasetKinds()) {
    ExperimentConfig config;
    config.num_queries = 30;
    config.prediction_length = 50;
    // RMF trains per query from the recent history; give it the paper's
    // realistic window and retrospect search (its cost is n^3 in the
    // timestamps used), while the HPM premise still comes from the last
    // few movements.
    config.recent_length = 60;
    config.rmf_window = 60;
    config.rmf_retrospect = 5;
    const Dataset& dataset = GetDataset(kind, config);

    TablePrinter table({"sub_trajectories", "HPM_ms", "RMF_ms",
                        "HPM_fallback_calls"});
    for (int subs = 10; subs <= 100; subs += 10) {
      ExperimentConfig sweep = config;
      sweep.train_subs = subs;
      const auto predictor = TrainPredictor(dataset, sweep);
      const auto cases = MakeWorkload(dataset, sweep);
      const EvalResult hpm = RunHpm(*predictor, cases);
      const EvalResult rmf = RunRmf(cases, sweep);
      table.AddRow({std::to_string(subs), Fmt(hpm.mean_response_ms, 4),
                    Fmt(rmf.mean_response_ms, 4),
                    std::to_string(hpm.motion_answers)});
    }
    std::printf("\n[%s]\n", DatasetName(kind));
    table.Print(stdout);
  }
  return 0;
}
