// hpm_tool: command-line front end for the hpm library.
//
// Subcommands:
//   generate --kind bike|cow|car|airplane --out history.csv
//            [--period N] [--days N] [--seed N]
//       Synthesise a dataset and write it as CSV.
//
//   train --history history.csv --model model.bin
//         [--period N] [--eps X] [--min-pts N] [--min-conf X]
//         [--distant N] [--slack X] [--train-subs N]
//       Mine patterns from a CSV history and persist the model.
//
//   info --model model.bin
//       Print a trained model's summary.
//
//   predict --model model.bin --history history.csv --now T
//           --horizon N [--k N]
//       Answer a predictive query: recent movements are read from the
//       history around time T; the query time is T + horizon.
//
//   evaluate --model model.bin --history history.csv
//            [--length N] [--queries N] [--recent N]
//       Measure prediction error on held-out periods (those beyond the
//       model's training range) against the RMF and linear baselines.
//
//   faultcheck [--seed N] [--dir PATH]
//       Run a deterministic fault-injection scenario (degraded serving,
//       save-kill recovery) and report per-site hit/fire counts. Needs a
//       -DHPM_ENABLE_FAULTS=ON build; exits 2 when the hooks are
//       compiled out, 1 when an invariant breaks, 0 on success.
//
//   stats [--seed N] [--shards N] [--threads N] [--objects N] [--ops N]
//       Run a seeded mixed workload (ingest, point/batch predictions,
//       range and kNN queries, a slice of malformed reports and
//       shed-to-RMF traffic) against a store and dump the full
//       observability picture as JSON: the metrics snapshot (per-op
//       admitted/shed counters, the overload-ladder counters, pipeline
//       stage latency histograms, TPT traversal effort) and a per-stage
//       latency breakdown (see docs/OBSERVABILITY.md).
//
//   serve --dir PATH [--host H] [--port N] [--port-file F] [--wal 0|1]
//         [--threads N] [--shards N]
//         [--replica-of HOST:PORT] [--poll-ms N] [--stale-ms N]
//       Serve a MovingObjectStore over TCP. Without --replica-of: a
//       primary — loads (or creates) the store under --dir, journals to
//       <dir>/wal, and answers reads, writes, and replication RPCs.
//       With --replica-of: a read-only replica — bootstraps a snapshot
//       from the primary when <dir> has none, replays its local journal
//       mirror, then follows the primary's journal; reads are stamped
//       with generation + staleness. --port 0 (default) binds an
//       ephemeral port; --port-file writes the bound port for scripts.
//       Runs until SIGINT/SIGTERM. Exits 3 when a replica detects
//       divergence and needs a re-bootstrap.
//
//   connect --port N [--host H] [--op ping|report|predict|stats]
//           [--id N] [--t N] [--x X] [--y Y] [--tq N] [--k N]
//       One client call against a running server; prints the reply
//       envelope (role, generation, staleness) and the op's result.
//
//   repl --port N [--host H]
//       Print a primary's replication state: current generation and the
//       journal segment listing a follower would mirror.
//
//   wal --dir PATH [--verify 1]
//       Inspect a write-ahead report journal directory: one row per
//       segment with its shard, sequence number, base generation, record
//       count, torn-tail bytes, and health. With --verify 1, exits 1 when
//       any segment is corrupt, unreadable, or missing its header (a torn
//       tail alone is a normal crash artifact, not a verification
//       failure). Never mutates the journal.
//
// All subcommands exit 0 on success and print errors to stderr.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/hybrid_predictor.h"
#include "datagen/datasets.h"
#include "common/table_printer.h"
#include "eval/metrics.h"
#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"
#include "server/replication.h"
#include "server/store_layout.h"

namespace {

using namespace hpm;

/// Minimal --flag value parser: flags must be passed as "--name value".
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        ok_ = false;
        bad_ = argv[i];
        return;
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      ok_ = false;
      bad_ = argv[argc - 1];
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }

  std::string Get(const std::string& name, const std::string& fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    used_.insert(it->first);
    return it->second;
  }

  /// The flag as a finite number. Any other value (trailing junk, inf,
  /// nan) yields `fallback` and records an error for FinishArgs.
  double GetDouble(const std::string& name, double fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    used_.insert(it->first);
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) {
      Reject(it->first, it->second);
      return fallback;
    }
    return value;
  }

  /// The flag as a whole base-10 integer in [lo, hi]. Any other value
  /// (trailing junk, overflow, out of range) yields `fallback` and
  /// records an error for FinishArgs.
  int64_t GetInt64(const std::string& name, int64_t fallback,
                   int64_t lo = std::numeric_limits<int64_t>::min(),
                   int64_t hi = std::numeric_limits<int64_t>::max()) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    used_.insert(it->first);
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
        value > hi) {
      Reject(it->first, it->second);
      return fallback;
    }
    return value;
  }

  /// GetInt64 for a flag stored in an int: rejects values outside
  /// [lo, hi], which defaults to the whole int range.
  int GetInt(const std::string& name, int fallback,
             int lo = std::numeric_limits<int>::min(),
             int hi = std::numeric_limits<int>::max()) {
    return static_cast<int>(GetInt64(name, fallback, lo, hi));
  }

  bool Has(const std::string& name) const { return values_.count(name); }

  /// The first value a Get* could not parse — empty string if none.
  const std::string& error() const { return error_; }

  /// Any flag that no Get* consumed (a typo) — empty string if none.
  std::string FirstUnused() const {
    for (const auto& [name, value] : values_) {
      if (!used_.count(name)) return name;
    }
    return "";
  }

 private:
  void Reject(const std::string& name, const std::string& value) {
    if (error_.empty()) error_ = "bad value '" + value + "' for --" + name;
  }

  bool ok_ = true;
  std::string bad_;
  std::string error_;
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hpm_tool "
               "<generate|train|info|predict|evaluate|faultcheck"
               "|stats|wal|serve|connect|repl> "
               "[--flag value ...]\n  (see the header of tools/hpm_tool.cc)\n");
  return 2;
}

int FinishArgs(Args* args) {
  if (!args->error().empty()) return Fail(args->error());
  const std::string unused = args->FirstUnused();
  if (!unused.empty()) return Fail("unknown flag --" + unused);
  return 0;
}

int RunGenerate(Args args) {
  const std::string kind_name = args.Get("kind", "car");
  const std::string out = args.Get("out", "");
  PeriodicGeneratorConfig config;
  DatasetKind kind;
  if (kind_name == "bike") {
    kind = DatasetKind::kBike;
  } else if (kind_name == "cow") {
    kind = DatasetKind::kCow;
  } else if (kind_name == "car") {
    kind = DatasetKind::kCar;
  } else if (kind_name == "airplane") {
    kind = DatasetKind::kAirplane;
  } else {
    return Fail("unknown --kind '" + kind_name + "'");
  }
  config = DefaultConfig(kind);
  config.period = args.GetInt64("period", config.period);
  config.num_sub_trajectories =
      args.GetInt("days", config.num_sub_trajectories);
  config.seed = static_cast<uint64_t>(args.GetInt64("seed", 1));
  if (out.empty()) return Fail("--out is required");
  if (int rc = FinishArgs(&args)) return rc;

  const Dataset dataset = MakeDataset(kind, config);
  if (Status s = WriteTrajectoryCsv(dataset.trajectory, out); !s.ok()) {
    return Fail(s.ToString());
  }
  std::printf("wrote %zu samples (%d days x %ld) to %s\n",
              dataset.trajectory.size(), config.num_sub_trajectories,
              static_cast<long>(config.period), out.c_str());
  return 0;
}

int RunTrain(Args args) {
  const std::string history_path = args.Get("history", "");
  const std::string model_path = args.Get("model", "");
  HybridPredictorOptions options;
  options.regions.period = args.GetInt64("period", 300);
  options.regions.dbscan.eps = args.GetDouble("eps", 30.0);
  options.regions.dbscan.min_pts = args.GetInt("min-pts", 4);
  options.regions.limit_sub_trajectories = args.GetInt("train-subs", 0);
  options.mining.min_confidence = args.GetDouble("min-conf", 0.3);
  options.distant_threshold = args.GetInt64("distant", 60);
  options.region_match_slack = args.GetDouble("slack", 25.0);
  if (history_path.empty() || model_path.empty()) {
    return Fail("--history and --model are required");
  }
  if (int rc = FinishArgs(&args)) return rc;

  auto history = ReadTrajectoryCsv(history_path);
  if (!history.ok()) return Fail(history.status().ToString());
  auto predictor = HybridPredictor::Train(*history, options);
  if (!predictor.ok()) return Fail(predictor.status().ToString());
  if (Status s = (*predictor)->SaveToFile(model_path); !s.ok()) {
    return Fail(s.ToString());
  }
  const TrainingSummary& summary = (*predictor)->summary();
  std::printf("trained on %zu sub-trajectories: %zu regions, %zu patterns "
              "(%.2f s); model -> %s\n",
              summary.num_sub_trajectories, summary.num_frequent_regions,
              summary.num_patterns, summary.train_seconds,
              model_path.c_str());
  return 0;
}

int RunInfo(Args args) {
  const std::string model_path = args.Get("model", "");
  if (model_path.empty()) return Fail("--model is required");
  if (int rc = FinishArgs(&args)) return rc;

  auto predictor = HybridPredictor::LoadFromFile(model_path);
  if (!predictor.ok()) return Fail(predictor.status().ToString());
  const TrainingSummary& summary = (*predictor)->summary();
  const HybridPredictorOptions& options = (*predictor)->options();
  std::printf("model: %s\n", model_path.c_str());
  std::printf("  period (T):          %ld\n",
              static_cast<long>(options.regions.period));
  std::printf("  sub-trajectories:    %zu\n",
              summary.num_sub_trajectories);
  std::printf("  frequent regions:    %zu\n",
              summary.num_frequent_regions);
  std::printf("  trajectory patterns: %zu\n", summary.num_patterns);
  std::printf("  TPT height:          %d\n", summary.tpt_height);
  std::printf("  TPT frozen arena:    %.2f MB\n",
              static_cast<double>(summary.tpt_frozen_bytes) / 1048576.0);
  std::printf("  distant threshold d: %ld\n",
              static_cast<long>(options.distant_threshold));
  std::printf("  Eps / MinPts:        %.1f / %d\n",
              options.regions.dbscan.eps, options.regions.dbscan.min_pts);
  std::printf("  min confidence:      %.2f\n",
              options.mining.min_confidence);
  return 0;
}

int RunPredict(Args args) {
  const std::string model_path = args.Get("model", "");
  const std::string history_path = args.Get("history", "");
  const Timestamp now = args.GetInt64("now", -1);
  const Timestamp horizon = args.GetInt64("horizon", 0);
  const int k = args.GetInt("k", 1);
  const int recent = args.GetInt("recent", 10);
  if (int rc = FinishArgs(&args)) return rc;
  if (model_path.empty() || history_path.empty()) {
    return Fail("--model and --history are required");
  }
  if (now < 0) return Fail("--now is required (and must be >= 0)");
  if (horizon < 1) return Fail("--horizon must be >= 1");

  auto predictor = HybridPredictor::LoadFromFile(model_path);
  if (!predictor.ok()) return Fail(predictor.status().ToString());
  auto history = ReadTrajectoryCsv(history_path);
  if (!history.ok()) return Fail(history.status().ToString());
  if (static_cast<size_t>(now) >= history->size()) {
    return Fail("--now is beyond the history length " +
                std::to_string(history->size()));
  }

  PredictiveQuery query;
  query.recent_movements = history->RecentMovements(now, recent);
  query.current_time = now;
  query.query_time = now + horizon;
  query.k = k;
  auto predictions = (*predictor)->Predict(query);
  if (!predictions.ok()) return Fail(predictions.status().ToString());
  std::printf("query: now=%ld horizon=%ld (%s)\n", static_cast<long>(now),
              static_cast<long>(horizon),
              horizon >= (*predictor)->options().distant_threshold
                  ? "distant-time, BQP"
                  : "near-time, FQP");
  for (const Prediction& p : *predictions) {
    std::printf("  %s\n", p.ToString().c_str());
  }
  return 0;
}

int RunEvaluate(Args args) {
  const std::string model_path = args.Get("model", "");
  const std::string history_path = args.Get("history", "");
  const Timestamp length = args.GetInt64("length", 50);
  const int queries = args.GetInt("queries", 50);
  const int recent = args.GetInt("recent", 10);
  if (model_path.empty() || history_path.empty()) {
    return Fail("--model and --history are required");
  }
  if (int rc = FinishArgs(&args)) return rc;

  auto predictor = HybridPredictor::LoadFromFile(model_path);
  if (!predictor.ok()) return Fail(predictor.status().ToString());
  auto history = ReadTrajectoryCsv(history_path);
  if (!history.ok()) return Fail(history.status().ToString());

  const Timestamp period = (*predictor)->options().regions.period;
  const int train_subs =
      static_cast<int>((*predictor)->summary().num_sub_trajectories);
  const int total_subs =
      static_cast<int>(history->NumSubTrajectories(period));
  if (total_subs <= train_subs) {
    return Fail("history has no held-out periods beyond the model's " +
                std::to_string(train_subs) + " training sub-trajectories");
  }

  WorkloadConfig workload;
  workload.num_queries = queries;
  workload.recent_length = recent;
  workload.prediction_length = length;
  auto cases = MakeQueryCases(*history, period, train_subs, workload);
  if (!cases.ok()) return Fail(cases.status().ToString());

  auto hpm_result = EvaluateHpm(**predictor, *cases);
  auto rmf_result = EvaluateRmf(*cases);
  auto linear_result = EvaluateLinear(*cases);
  if (!hpm_result.ok()) return Fail(hpm_result.status().ToString());
  if (!rmf_result.ok()) return Fail(rmf_result.status().ToString());
  if (!linear_result.ok()) return Fail(linear_result.status().ToString());

  std::printf("evaluation: %d queries, prediction length %ld, "
              "held-out periods %d..%d\n",
              queries, static_cast<long>(length), train_subs,
              total_subs - 1);
  TablePrinter table({"predictor", "mean_error", "median_error",
                      "mean_ms", "pattern_answers"});
  table.AddRow({"HPM", TablePrinter::FormatDouble(hpm_result->mean_error, 1),
                TablePrinter::FormatDouble(hpm_result->median_error, 1),
                TablePrinter::FormatDouble(hpm_result->mean_response_ms, 3),
                std::to_string(hpm_result->pattern_answers)});
  table.AddRow({"RMF", TablePrinter::FormatDouble(rmf_result->mean_error, 1),
                TablePrinter::FormatDouble(rmf_result->median_error, 1),
                TablePrinter::FormatDouble(rmf_result->mean_response_ms, 3),
                "0"});
  table.AddRow(
      {"Linear", TablePrinter::FormatDouble(linear_result->mean_error, 1),
       TablePrinter::FormatDouble(linear_result->median_error, 1),
       TablePrinter::FormatDouble(linear_result->mean_response_ms, 3),
       "0"});
  table.Print(stdout);
  return 0;
}

int RunFaultcheck(Args args) {
#ifndef HPM_ENABLE_FAULTS
  (void)args;
  std::fprintf(stderr,
               "faultcheck needs the fault-injection hooks; rebuild with "
               "-DHPM_ENABLE_FAULTS=ON\n");
  return 2;
#else
  const uint64_t seed = static_cast<uint64_t>(args.GetInt64("seed", 1));
  const std::string dir = args.Get(
      "dir", (std::filesystem::temp_directory_path() / "hpm_faultcheck")
                 .string());
  if (int rc = FinishArgs(&args)) return rc;

  constexpr Timestamp kPeriod = 20;
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = 5;
  options.recent_window = 5;

  const auto route = [](ObjectId id, Timestamp t) -> Point {
    return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
            500.0 + 1000.0 * static_cast<double>(id)};
  };
  FaultInjector& injector = FaultInjector::Global();
  injector.Reset();
  injector.Seed(seed);

  MovingObjectStore store(options);
  for (ObjectId id = 0; id < 3; ++id) {
    for (Timestamp t = 0; t < 5 * kPeriod + 11; ++t) {
      if (Status s = store.ReportLocation(id, route(id, t)); !s.ok()) {
        return Fail("ingest failed: " + s.ToString());
      }
    }
  }
  const Timestamp now = 5 * kPeriod + 10;

  // 1. Pattern-side faults: every query must still answer; anything
  //    flagged degraded must come from the motion function.
  FaultRule flaky;
  flaky.probability = 0.5;
  injector.Arm("core/pattern_lookup", flaky);
  int degraded = 0, pattern_answers = 0;
  for (int i = 0; i < 200; ++i) {
    const ObjectId id = i % 3;
    auto result = store.PredictLocation(id, now + 2 + i % 10);
    if (!result.ok()) {
      return Fail("query failed under pattern faults: " +
                  result.status().ToString());
    }
    if (result->front().degraded != DegradedReason::kNone) {
      ++degraded;
      if (result->front().source != PredictionSource::kMotionFunction) {
        return Fail("degraded answer not from the motion function");
      }
    } else if (result->front().source == PredictionSource::kPattern) {
      ++pattern_answers;
    }
  }
  injector.Disarm("core/pattern_lookup");
  if (degraded == 0) {
    return Fail("fault schedule never fired at probability 0.5");
  }

  // 2. Expired deadlines degrade rather than fail.
  auto rushed = store.PredictLocation(0, now + 5, 1, Deadline::Expired());
  if (!rushed.ok() ||
      rushed->front().degraded != DegradedReason::kDeadlineExceeded) {
    return Fail("expired deadline did not degrade to the motion function");
  }

  // 3. Save-kill recovery: kill the save at seeded random write points;
  //    the directory must always reload to the committed state.
  std::filesystem::remove_all(dir);
  if (Status s = store.SaveToDirectory(dir); !s.ok()) {
    return Fail("clean save failed: " + s.ToString());
  }
  const char* const kill_sites[] = {"store/save_object",
                                    "store/save_manifest",
                                    "store/save_commit", "io/atomic_write"};
  Random rng(seed);
  int kills = 0;
  for (int round = 0; round < 6; ++round) {
    const char* site = kill_sites[rng.Uniform(4)];
    FaultRule crash;
    crash.from_nth_call = static_cast<int64_t>(1 + rng.Uniform(6));
    injector.Arm(site, crash);
    const Status killed = store.SaveToDirectory(dir);
    injector.Disarm(site);
    if (!killed.ok()) ++kills;
    auto restored = MovingObjectStore::LoadFromDirectory(dir, options);
    if (!restored.ok()) {
      return Fail(std::string("unrecoverable after killing ") + site +
                  ": " + restored.status().ToString());
    }
    for (ObjectId id = 0; id < 3; ++id) {
      if (restored->HistoryLength(id) != store.HistoryLength(id)) {
        return Fail(std::string("recovered history differs after killing ") +
                    site);
      }
      auto expected = store.PredictLocation(id, now + 5);
      auto actual = restored->PredictLocation(id, now + 5);
      if (!expected.ok() || !actual.ok() ||
          !(expected->front().location == actual->front().location)) {
        return Fail(std::string("recovered answers differ after killing ") +
                    site);
      }
    }
  }
  if (kills == 0) {
    return Fail("no save was ever killed; kill schedule is miscalibrated");
  }

  std::printf("faultcheck --seed %llu: %d degraded / %d pattern answers, "
              "%d/6 saves killed, all recoveries served committed state\n",
              static_cast<unsigned long long>(seed), degraded,
              pattern_answers, kills);
  TablePrinter table({"site", "calls", "fires"});
  for (const std::string& site : injector.Sites()) {
    table.AddRow({site, std::to_string(injector.calls(site)),
                  std::to_string(injector.fires(site))});
  }
  table.Print(stdout);
  std::filesystem::remove_all(dir);
  injector.Reset();
  return 0;
#endif  // HPM_ENABLE_FAULTS
}

int RunStats(Args args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt64("seed", 1));
  const int shards = args.GetInt("shards", 4);
  const int threads = args.GetInt("threads", 2);
  const int objects = args.GetInt("objects", 8);
  const int ops = args.GetInt("ops", 400);
  if (int rc = FinishArgs(&args)) return rc;
  if (shards < 1) return Fail("--shards must be >= 1");
  if (threads < 1) return Fail("--threads must be >= 1");
  if (objects < 1) return Fail("--objects must be >= 1");
  if (ops < 1) return Fail("--ops must be >= 1");

  constexpr Timestamp kPeriod = 20;
  constexpr int kWarmPeriods = 5;
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = kWarmPeriods;
  options.recent_window = 5;
  options.num_shards = shards;
  options.query_threads = threads;
  // A finite headroom floor so a slice of the query traffic exercises
  // the rung-1 shed path and the degraded counters are non-trivial.
  options.degrade_min_headroom = std::chrono::microseconds(50);
  MovingObjectStore store(options);

  const auto route = [](ObjectId id, Timestamp t) -> Point {
    return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
            500.0 + 1000.0 * static_cast<double>(id)};
  };
  for (ObjectId id = 0; id < objects; ++id) {
    for (Timestamp t = 0; t < kWarmPeriods * kPeriod; ++t) {
      (void)store.ReportLocation(id, route(id, t));
    }
  }

  // Seeded mixed workload over every entry point.
  Random rng(seed);
  const Timestamp now = kWarmPeriods * kPeriod;
  const BoundingBox everywhere({-1e7, -1e7}, {1e7, 1e7});
  std::vector<ObjectId> all_ids;
  for (ObjectId id = 0; id < objects; ++id) all_ids.push_back(id);
  for (int i = 0; i < ops; ++i) {
    const ObjectId id =
        static_cast<ObjectId>(rng.Uniform(static_cast<uint64_t>(objects)));
    const Timestamp tq = now + 1 + static_cast<Timestamp>(rng.Uniform(10));
    switch (rng.Uniform(12)) {
      case 0:
      case 1:
      case 2:
        (void)store.ReportLocation(id, route(id, now + i));
        break;
      case 3:  // Malformed report: exercises the rejection counters.
        (void)store.ReportLocationAt(id, -1, {0.0, 0.0});
        break;
      case 4:
        (void)store.PredictLocationBatch(all_ids, tq, 2);
        break;
      case 5:
        (void)store.PredictiveRangeQuery(everywhere, tq, 2);
        break;
      case 6:
        (void)store.PredictiveNearestNeighbors({500.0, 500.0}, tq, 3);
        break;
      case 7:  // Tight deadline: exercises the shed-to-RMF ladder.
        (void)store.PredictLocation(id, tq, 1,
                                    Deadline::After(
                                        std::chrono::microseconds(10)));
        break;
      default:
        (void)store.PredictLocation(id, tq, 2);
        break;
    }
  }

  const MetricsSnapshot metrics = store.metrics_snapshot();

  // One JSON document: workload parameters, a per-stage latency
  // breakdown, and the full metrics snapshot.
  std::string json = "{\n  \"workload\": {";
  json += "\"seed\": " + std::to_string(seed);
  json += ", \"shards\": " + std::to_string(shards);
  json += ", \"threads\": " + std::to_string(threads);
  json += ", \"objects\": " + std::to_string(objects);
  json += ", \"ops\": " + std::to_string(ops);
  json += "},\n  \"stages\": {";
  bool first_stage = true;
  for (const char* stage : {"admit", "plan", "fanout", "merge"}) {
    const auto* histogram =
        metrics.histogram(std::string("stage.") + stage + "_us");
    if (histogram == nullptr) continue;
    if (!first_stage) json += ", ";
    first_stage = false;
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "\"%s\": {\"count\": %llu, \"mean_us\": %.3f, "
                  "\"p50_us\": %.1f, \"p99_us\": %.1f}",
                  stage, static_cast<unsigned long long>(histogram->count),
                  histogram->mean_micros(), histogram->PercentileMicros(50),
                  histogram->PercentileMicros(99));
    json += buffer;
  }
  json += "},\n  \"metrics\": " + metrics.ToJson() + "\n}";
  std::printf("%s\n", json.c_str());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;
void HandleServeStop(int) { g_serve_stop = 1; }

/// Splits "host:port"; returns false when the port is missing/bad.
bool ParseHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  *host = spec.substr(0, colon);
  const char* text = spec.c_str() + colon + 1;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (*end != '\0' || value < 1 || value > 65535) return false;
  *port = static_cast<int>(value);
  return !host->empty();
}

void PrintReplyInfo(const ReplyInfo& info) {
  std::printf("role=%s generation=%llu staleness_us=%llu degraded=%d\n",
              ServerRoleName(info.role),
              static_cast<unsigned long long>(info.generation),
              static_cast<unsigned long long>(info.staleness_us),
              info.stale_degraded ? 1 : 0);
}

int RunServe(Args args) {
  const std::string dir = args.Get("dir", "");
  const std::string host = args.Get("host", "127.0.0.1");
  const int port = args.GetInt("port", 0, 0, 65535);
  const std::string port_file = args.Get("port-file", "");
  const std::string replica_of = args.Get("replica-of", "");
  const bool wal = args.GetInt64("wal", 1) != 0;
  const int threads = args.GetInt("threads", 4);
  const int shards = args.GetInt("shards", 0);
  const int64_t poll_ms = args.GetInt64("poll-ms", 100);
  const int64_t stale_ms = args.GetInt64("stale-ms", 2000);
  if (dir.empty()) return Fail("--dir is required");
  if (int rc = FinishArgs(&args)) return rc;

  g_serve_stop = 0;
  std::signal(SIGINT, HandleServeStop);
  std::signal(SIGTERM, HandleServeStop);

  ObjectStoreOptions store_options;
  if (shards > 0) store_options.num_shards = shards;
  HpmServerOptions server_options;
  server_options.host = host;
  server_options.port = port;
  server_options.handler_threads = threads;
  server_options.stale_threshold = std::chrono::microseconds(stale_ms * 1000);

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail("cannot create " + dir + ": " + ec.message());

  const auto publish_port = [&](int bound_port) -> int {
    std::fprintf(stderr, "serving on %s:%d\n", host.c_str(), bound_port);
    if (port_file.empty()) return 0;
    if (Status wrote = AtomicWriteFile(
            port_file, std::to_string(bound_port) + "\n");
        !wrote.ok()) {
      return Fail("cannot write --port-file: " + wrote.message());
    }
    return 0;
  };

  // LoadFromDirectory refuses a directory with neither snapshot nor
  // journal; first boot of a server is exactly that, so fall back to a
  // fresh store on kInvalidArgument (and only on it — a DataLoss load
  // failure must not silently serve an empty store).
  const auto load_or_create =
      [&](std::optional<MovingObjectStore>* store) -> int {
    StatusOr<MovingObjectStore> loaded =
        MovingObjectStore::LoadFromDirectory(dir, store_options);
    if (loaded.ok()) {
      store->emplace(std::move(*loaded));
      return 0;
    }
    if (loaded.status().code() == StatusCode::kInvalidArgument) {
      store->emplace(store_options);
      return 0;
    }
    return Fail("load: " + loaded.status().message());
  };

  if (replica_of.empty()) {
    // ---- Primary ----
    if (wal) store_options.durability.wal_dir = dir + "/wal";
    std::optional<MovingObjectStore> store_holder;
    if (int rc = load_or_create(&store_holder)) return rc;
    MovingObjectStore& store = *store_holder;

    server_options.role = ServerRole::kPrimary;
    server_options.data_dir = dir;
    StatusOr<std::unique_ptr<HpmServer>> server =
        HpmServer::Start(&store, server_options);
    if (!server.ok()) return Fail("start: " + server.status().message());
    if (int rc = publish_port((*server)->port())) return rc;

    while (!g_serve_stop) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    (*server)->Stop();
    return 0;
  }

  // ---- Replica ----
  std::string primary_host;
  int primary_port = 0;
  if (!ParseHostPort(replica_of, &primary_host, &primary_port)) {
    return Fail("--replica-of must be HOST:PORT");
  }
  HpmClientOptions client_options;
  client_options.host = primary_host;
  client_options.port = primary_port;
  HpmClient client(client_options);

  if (!std::filesystem::exists(dir + "/" + kCurrentFileName, ec)) {
    StatusOr<uint64_t> bootstrapped = BootstrapReplica(client, dir);
    if (!bootstrapped.ok()) {
      return Fail("bootstrap: " + bootstrapped.status().message());
    }
    std::fprintf(stderr, "bootstrapped snapshot generation %llu\n",
                 static_cast<unsigned long long>(*bootstrapped));
  }

  // The replica's store never journals: <dir>/wal is a byte mirror of
  // the *primary's* journal, owned by the Replicator.
  store_options.durability.wal_dir.clear();
  std::optional<MovingObjectStore> store_holder;
  if (int rc = load_or_create(&store_holder)) return rc;
  MovingObjectStore& store = *store_holder;

  ReplicaHealth health;
  ReplicatorOptions repl_options;
  repl_options.data_dir = dir;
  repl_options.poll_interval = std::chrono::milliseconds(poll_ms);
  Replicator replicator(&client, &store, &health, store.generation(),
                        repl_options);
  if (Status caught = replicator.CatchUpFromMirror(); !caught.ok()) {
    return Fail("mirror catch-up: " + caught.message());
  }
  // Serve even when the primary is down at start: the first SyncOnce
  // failing just means every reply is stamped maximally stale.
  if (Status synced = replicator.SyncOnce(); !synced.ok()) {
    std::fprintf(stderr, "initial sync failed (serving stale): %s\n",
                 synced.message().c_str());
  }
  replicator.Start();

  server_options.role = ServerRole::kReplica;
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(&store, server_options, &health);
  if (!server.ok()) return Fail("start: " + server.status().message());
  if (int rc = publish_port((*server)->port())) return rc;

  while (!g_serve_stop) {
    if (replicator.resync_required()) {
      (*server)->Stop();
      replicator.Stop();
      Fail("replica diverged from primary; wipe " + dir +
           " and re-bootstrap");
      return 3;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  (*server)->Stop();
  replicator.Stop();
  return 0;
}

int RunConnect(Args args) {
  HpmClientOptions client_options;
  client_options.host = args.Get("host", "127.0.0.1");
  client_options.port = args.GetInt("port", 0, 0, 65535);
  const std::string op = args.Get("op", "ping");
  const int64_t id = args.GetInt64("id", 0);
  const int64_t t = args.GetInt64("t", -1);
  const double x = args.GetDouble("x", 0.0);
  const double y = args.GetDouble("y", 0.0);
  const int64_t tq = args.GetInt64("tq", 0);
  const int64_t k = args.GetInt64("k", 1);
  if (int rc = FinishArgs(&args)) return rc;
  if (client_options.port <= 0) return Fail("--port is required");
  HpmClient client(client_options);

  if (op == "ping") {
    StatusOr<ReplyInfo> reply = client.Ping();
    if (!reply.ok()) return Fail(reply.status().message());
    PrintReplyInfo(*reply);
    return 0;
  }
  if (op == "report") {
    ReportRequest request;
    request.id = id;
    request.t = t;
    request.x = x;
    request.y = y;
    StatusOr<ReplyInfo> reply = client.Report(request);
    if (!reply.ok()) return Fail(reply.status().message());
    PrintReplyInfo(*reply);
    return 0;
  }
  if (op == "predict") {
    PredictRequest request;
    request.id = id;
    request.tq = tq;
    request.k = static_cast<int32_t>(k);
    StatusOr<PredictReply> reply = client.Predict(request);
    if (!reply.ok()) return Fail(reply.status().message());
    PrintReplyInfo(reply->info);
    for (const Prediction& p : reply->predictions) {
      std::printf("(%.6f, %.6f) score=%.4f %s\n", p.location.x, p.location.y,
                  p.score,
                  p.source == PredictionSource::kPattern ? "pattern" : "rmf");
    }
    return 0;
  }
  if (op == "stats") {
    StatusOr<StatsReply> reply = client.Stats();
    if (!reply.ok()) return Fail(reply.status().message());
    PrintReplyInfo(reply->info);
    std::printf("%s\n", reply->json.c_str());
    return 0;
  }
  return Fail("unknown --op '" + op + "'");
}

int RunRepl(Args args) {
  HpmClientOptions client_options;
  client_options.host = args.Get("host", "127.0.0.1");
  client_options.port = args.GetInt("port", 0, 0, 65535);
  if (int rc = FinishArgs(&args)) return rc;
  if (client_options.port <= 0) return Fail("--port is required");
  HpmClient client(client_options);

  StatusOr<ReplStateReply> state = client.ReplState(ReplStateRequest{});
  if (!state.ok()) return Fail(state.status().message());
  PrintReplyInfo(state->info);
  std::printf("generation %llu, %zu journal segment(s)\n",
              static_cast<unsigned long long>(state->generation),
              state->segments.size());
  if (state->segments.empty()) return 0;
  TablePrinter table({"shard", "seq", "base_gen", "bytes"});
  for (const WireSegment& segment : state->segments) {
    table.AddRow({std::to_string(segment.shard), std::to_string(segment.seq),
                  std::to_string(segment.base_gen),
                  std::to_string(segment.size)});
  }
  table.Print(stdout);
  return 0;
}

int RunWal(Args args) {
  const std::string dir = args.Get("dir", "");
  const bool verify = args.GetInt64("verify", 0) != 0;
  if (dir.empty()) return Fail("--dir is required");
  if (int rc = FinishArgs(&args)) return rc;

  // A missing directory is an operator error (wrong path), not a clean
  // journal — only an *existing* directory with no segments verifies as
  // empty-but-valid.
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec) || ec) {
    return Fail("journal directory " + dir + " does not exist");
  }
  const std::vector<WalSegmentInfo> segments = ListWalSegments(dir);
  if (segments.empty()) {
    std::printf("no journal segments in %s (empty journal is valid)\n",
                dir.c_str());
    return 0;
  }

  TablePrinter table({"segment", "shard", "seq", "base_gen", "records",
                      "torn_bytes", "status"});
  bool unhealthy = false;
  for (const WalSegmentInfo& info : segments) {
    const std::string name =
        std::filesystem::path(info.path).filename().string();
    if (!info.header_ok) {
      unhealthy = true;
      table.AddRow({name, std::to_string(info.shard),
                    std::to_string(info.seq), "?", "?", "?", "bad-header"});
      continue;
    }
    // Inspection never mutates the journal: torn tails are reported, not
    // truncated (recovery owns the repair).
    StatusOr<WalSegmentContents> contents =
        ReadWalSegment(info.path, /*truncate_torn_tail=*/false);
    if (!contents.ok()) {
      unhealthy = true;
      table.AddRow({name, std::to_string(info.shard),
                    std::to_string(info.seq), std::to_string(info.base_gen),
                    "?", "?", "unreadable"});
      continue;
    }
    std::string status = "ok";
    if (contents->corrupt) {
      status = "corrupt@" + std::to_string(contents->corrupt_offset);
      unhealthy = true;
    } else if (contents->truncated_bytes > 0) {
      status = "torn-tail";
    }
    table.AddRow({name, std::to_string(info.shard),
                  std::to_string(info.seq), std::to_string(info.base_gen),
                  std::to_string(contents->records.size()),
                  std::to_string(contents->truncated_bytes), status});
  }
  table.Print(stdout);
  if (verify && unhealthy) {
    std::fprintf(stderr,
                 "verify: journal has corrupt or unreadable segments\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) {
    return Fail("malformed arguments near '" + args.bad() + "'");
  }
  if (command == "generate") return RunGenerate(std::move(args));
  if (command == "train") return RunTrain(std::move(args));
  if (command == "info") return RunInfo(std::move(args));
  if (command == "predict") return RunPredict(std::move(args));
  if (command == "evaluate") return RunEvaluate(std::move(args));
  if (command == "faultcheck") return RunFaultcheck(std::move(args));
  if (command == "stats") return RunStats(std::move(args));
  if (command == "wal") return RunWal(std::move(args));
  if (command == "serve") return RunServe(std::move(args));
  if (command == "connect") return RunConnect(std::move(args));
  if (command == "repl") return RunRepl(std::move(args));
  return Usage();
}
