// Micro-benchmarks (google-benchmark) for the hot operations underneath
// the figure benches: pattern-key ops, TPT insert/search, DBSCAN,
// Apriori support counting, RMF fitting, one object's whole model build
// (HybridPredictor::Train), saving and loading that model
// (SaveToFile / LoadFromFile), the byte codec on one report's wire and
// journal messages, one fleet-wide prediction batch
// (MovingObjectStore::PredictLocationBatch) and one predictive range or
// kNN query over the same fleet, with the objects each evaluates and
// prunes.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dbscan.h"
#include "common/random.h"
#include "core/hybrid_predictor.h"
#include "core/similarity.h"
#include "datagen/report_stream.h"
#include "io/wal.h"
#include "mining/apriori.h"
#include "mining/transaction.h"
#include "motion/recursive_motion.h"
#include "net/protocol.h"
#include "server/object_store.h"
#include "tpt_reference/brute_force_store.h"
#include "tpt_reference/tpt_tree.h"

namespace hpm {
namespace {

PatternKey RandomKey(Random* rng, size_t premise_len, size_t cons_len) {
  PatternKey key(premise_len, cons_len);
  key.mutable_premise().Set(rng->Uniform(premise_len));
  key.mutable_premise().Set(rng->Uniform(premise_len));
  key.mutable_consequence().Set(rng->Uniform(cons_len));
  return key;
}

void BM_PatternKeyIntersect(benchmark::State& state) {
  Random rng(1);
  const size_t len = static_cast<size_t>(state.range(0));
  const PatternKey a = RandomKey(&rng, len, 60);
  const PatternKey b = RandomKey(&rng, len, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersects(b));
  }
}
BENCHMARK(BM_PatternKeyIntersect)->Arg(80)->Arg(400)->Arg(800);

void BM_PatternKeyUnion(benchmark::State& state) {
  Random rng(2);
  const size_t len = static_cast<size_t>(state.range(0));
  PatternKey a = RandomKey(&rng, len, 60);
  const PatternKey b = RandomKey(&rng, len, 60);
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_PatternKeyUnion)->Arg(80)->Arg(800);

void BM_PremiseSimilarity(benchmark::State& state) {
  Random rng(3);
  const size_t len = 400;
  const PatternKey a = RandomKey(&rng, len, 60);
  const PatternKey q = RandomKey(&rng, len, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PremiseSimilarity(
        a.premise(), q.premise(), WeightFunction::kLinear));
  }
}
BENCHMARK(BM_PremiseSimilarity);

void BM_TptInsert(benchmark::State& state) {
  Random rng(4);
  const size_t regions = 400;
  for (auto _ : state) {
    state.PauseTiming();
    TptTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      IndexedPattern p;
      p.key = RandomKey(&rng, regions, 60);
      p.pattern_id = i;
      benchmark::DoNotOptimize(tree.Insert(std::move(p)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TptInsert)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_TptSearch(benchmark::State& state) {
  Random rng(5);
  const size_t regions = 400;
  TptTree tree;
  BruteForceStore brute;
  for (int i = 0; i < state.range(0); ++i) {
    IndexedPattern p;
    p.key = RandomKey(&rng, regions, 60);
    p.pattern_id = i;
    HPM_CHECK(brute.Insert(p).ok());
    HPM_CHECK(tree.Insert(std::move(p)).ok());
  }
  const PatternKey q = RandomKey(&rng, regions, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Search(q, SearchMode::kPremiseAndConsequence));
  }
}
BENCHMARK(BM_TptSearch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BruteForceSearch(benchmark::State& state) {
  Random rng(5);
  const size_t regions = 400;
  BruteForceStore brute;
  for (int i = 0; i < state.range(0); ++i) {
    IndexedPattern p;
    p.key = RandomKey(&rng, regions, 60);
    p.pattern_id = i;
    HPM_CHECK(brute.Insert(std::move(p)).ok());
  }
  const PatternKey q = RandomKey(&rng, regions, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brute.Search(q, SearchMode::kPremiseAndConsequence));
  }
}
BENCHMARK(BM_BruteForceSearch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Dbscan(benchmark::State& state) {
  Random rng(6);
  std::vector<Point> points(static_cast<size_t>(state.range(0)));
  for (auto& p : points) {
    p = {rng.UniformDouble(0, 10000), rng.UniformDouble(0, 10000)};
  }
  DbscanParams params;
  params.eps = 30.0;
  params.min_pts = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(points, params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Dbscan)->Arg(200)->Arg(2000)->Arg(20000);

void BM_RmfFit(benchmark::State& state) {
  Random rng(7);
  std::vector<TimedPoint> recent;
  for (int i = 0; i < state.range(0); ++i) {
    recent.push_back({i, Point{100.0 * i + rng.Gaussian(0, 5),
                               50.0 * i + rng.Gaussian(0, 5)}});
  }
  RmfOptions options;
  options.window = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RecursiveMotionFunction rmf(options);
    benchmark::DoNotOptimize(rmf.Fit(recent));
  }
}
BENCHMARK(BM_RmfFit)->Arg(10)->Arg(30)->Arg(100);

void BM_AprioriSupportCounting(benchmark::State& state) {
  Random rng(8);
  const size_t num_regions = 300;
  FrequentRegionSet regions;
  regions.set_period(300);
  for (size_t i = 0; i < num_regions; ++i) {
    FrequentRegion r;
    r.id = static_cast<int>(i);
    r.offset = static_cast<Timestamp>(i);
    r.center = {0, 0};
    r.mbr.Extend(r.center);
    r.support = 1;
    regions.AddRegion(r);
  }
  std::vector<Transaction> transactions;
  for (int t = 0; t < 60; ++t) {
    std::vector<RegionVisit> visits;
    for (size_t i = 0; i < num_regions; ++i) {
      if (rng.Bernoulli(0.5)) {
        visits.push_back(
            {static_cast<Timestamp>(i), static_cast<int>(i)});
      }
    }
    transactions.emplace_back(visits, num_regions);
  }
  AprioriParams params;
  params.min_confidence = 0.3;
  params.min_support = 5;
  params.max_pattern_length = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MineTrajectoryPatterns(transactions, regions, params));
  }
  state.SetLabel("pairs over 300 regions x 60 transactions");
}
BENCHMARK(BM_AprioriSupportCounting)->Unit(benchmark::kMillisecond);

/// Object 1's first `periods` periods of the repository benchmark's
/// stream (perfbench/hpm_bench.cc: 1000 objects, T = 20, drift every 4
/// periods, seed 1).
Trajectory BenchObjectHistory(int periods) {
  constexpr int kObjects = 1000;
  constexpr Timestamp kPeriod = 20;
  ReportStreamConfig config;
  config.num_objects = kObjects;
  config.period = kPeriod;
  config.pattern_probability = 0.9;
  config.noise_sigma = 2.0;
  config.drift_every_periods = 4;
  config.drift_fraction = 0.3;
  config.extent = 1000.0;
  config.seed = 1;
  ReportStream stream(config);
  Trajectory history;
  for (const StreamedReport& r :
       stream.Take(static_cast<size_t>(kObjects) *
                   static_cast<size_t>(periods) *
                   static_cast<size_t>(kPeriod))) {
    if (r.object_id == 1) history.Append(r.location);
  }
  return history;
}

/// The repository benchmark's predictor options.
HybridPredictorOptions BenchPredictorOptions() {
  HybridPredictorOptions options;
  options.regions.period = 20;
  options.regions.dbscan.eps = 15.0;
  options.regions.dbscan.min_pts = 3;
  options.mining.min_confidence = 0.2;
  options.distant_threshold = 8;
  options.region_match_slack = 8.0;
  return options;
}

/// The model BM_TrainObject builds for `periods` periods.
std::unique_ptr<HybridPredictor> BenchObjectModel(int periods) {
  StatusOr<std::unique_ptr<HybridPredictor>> trained = HybridPredictor::Train(
      BenchObjectHistory(periods), BenchPredictorOptions());
  HPM_CHECK(trained.ok());
  return std::move(*trained);
}

/// A per-process model file path in the system temp directory.
std::string BenchModelPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("hpm_micro_ops_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// One object's model build — region discovery, Apriori, key encoding
/// and Pack — on the repository benchmark's stream and predictor
/// options. The object is object 1; the argument is the number of
/// periods it trains on: 5 is a bootstrap training, 16 the window a
/// drift rebuild re-mines.
void BM_TrainObject(benchmark::State& state) {
  const Trajectory history =
      BenchObjectHistory(static_cast<int>(state.range(0)));
  const HybridPredictorOptions options = BenchPredictorOptions();
  size_t patterns = 0;
  for (auto _ : state) {
    StatusOr<std::unique_ptr<HybridPredictor>> trained =
        HybridPredictor::Train(history, options);
    HPM_CHECK(trained.ok());
    patterns = (*trained)->tpt().size();
    benchmark::DoNotOptimize(patterns);
  }
  state.SetLabel(std::to_string(patterns) + " patterns");
}
BENCHMARK(BM_TrainObject)->Arg(5)->Arg(16)->Unit(benchmark::kMicrosecond);

/// SaveToFile of BM_TrainObject's model for the same periods: encoding
/// plus AtomicWriteFile (temp file, fsync, rename) into the system temp
/// directory. The `bytes` counter is the model file's size.
void BM_SaveModel(benchmark::State& state) {
  const std::unique_ptr<HybridPredictor> model =
      BenchObjectModel(static_cast<int>(state.range(0)));
  const std::string path = BenchModelPath("save.hpm");
  for (auto _ : state) {
    HPM_CHECK(model->SaveToFile(path).ok());
  }
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  state.SetLabel(std::to_string(model->tpt().size()) + " patterns");
  std::filesystem::remove(path);
}
BENCHMARK(BM_SaveModel)->Arg(5)->Arg(16)->Unit(benchmark::kMicrosecond);

/// LoadFromFile of the file BM_SaveModel writes: read, checksums, parse
/// and every load-time check of the arena.
void BM_LoadModel(benchmark::State& state) {
  const std::unique_ptr<HybridPredictor> model =
      BenchObjectModel(static_cast<int>(state.range(0)));
  const std::string path = BenchModelPath("load.hpm");
  HPM_CHECK(model->SaveToFile(path).ok());
  for (auto _ : state) {
    StatusOr<std::unique_ptr<HybridPredictor>> loaded =
        HybridPredictor::LoadFromFile(path);
    HPM_CHECK(loaded.ok());
    benchmark::DoNotOptimize(loaded->get());
  }
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(path));
  state.SetLabel(std::to_string(model->tpt().size()) + " patterns");
  std::filesystem::remove(path);
}
BENCHMARK(BM_LoadModel)->Arg(5)->Arg(16)->Unit(benchmark::kMicrosecond);

/// The byte codec (common/bytes.h) on the messages a report and a
/// prediction move: encode and decode a report request, a reply body of
/// 10 pattern predictions with uncertainty boxes, and a journal report
/// record. The `bytes` counter is the encoded bytes per iteration.
void BM_WireCodec(benchmark::State& state) {
  const ReportRequest report{41, 1234, 512.25, -87.5};
  std::vector<Prediction> predictions(10);
  for (size_t i = 0; i < predictions.size(); ++i) {
    Prediction& p = predictions[i];
    p.location = Point(100.0 + static_cast<double>(i), 200.5);
    p.score = 0.5 / static_cast<double>(i + 1);
    p.source = PredictionSource::kPattern;
    p.pattern_id = static_cast<int>(i);
    p.consequence_region = static_cast<int>(3 * i);
    p.confidence = 0.75;
    p.uncertainty = BoundingBox(Point(90.0, 190.0), Point(120.0, 210.0));
  }
  WalRecord record;
  record.id = report.id;
  record.t = report.t;
  record.x = report.x;
  record.y = report.y;

  size_t encoded = 0;
  for (auto _ : state) {
    const std::string request = EncodeReport(report);
    Request decoded_request;
    HPM_CHECK(DecodeRequest(request, &decoded_request).ok());
    const std::string body = EncodePredictionsBody(predictions);
    std::vector<Prediction> decoded_predictions;
    HPM_CHECK(DecodePredictionsBody(body, &decoded_predictions).ok());
    const std::string frame = EncodeWalFrame(record);
    WalRecord decoded_record;
    HPM_CHECK(DecodeWalRecord(std::string_view(frame).substr(8),
                              &decoded_record)
                  .ok());
    benchmark::DoNotOptimize(decoded_request);
    benchmark::DoNotOptimize(decoded_predictions.data());
    benchmark::DoNotOptimize(decoded_record);
    encoded = request.size() + body.size() + frame.size();
  }
  state.counters["bytes"] = static_cast<double>(encoded);
}
BENCHMARK(BM_WireCodec);

/// The repository benchmark's stream and store options
/// (perfbench/hpm_bench.cc: 1000 objects, T = 20, drift every 4 periods,
/// seed 1, 2 fan-out threads), ingested for 6 periods so every object
/// has a trained model. Built once and shared by every run of the batch
/// benchmark.
const MovingObjectStore& PredictBatchStore() {
  static const std::unique_ptr<MovingObjectStore> store = [] {
    constexpr int kObjects = 1000;
    constexpr Timestamp kPeriod = 20;
    constexpr int kPeriods = 6;
    ReportStreamConfig config;
    config.num_objects = kObjects;
    config.period = kPeriod;
    config.pattern_probability = 0.9;
    config.noise_sigma = 2.0;
    config.drift_every_periods = 4;
    config.drift_fraction = 0.3;
    config.extent = 1000.0;
    config.seed = 1;
    ObjectStoreOptions options;
    options.predictor.regions.period = kPeriod;
    options.predictor.regions.dbscan.eps = 15.0;
    options.predictor.regions.dbscan.min_pts = 3;
    options.predictor.mining.min_confidence = 0.2;
    options.predictor.distant_threshold = 8;
    options.predictor.region_match_slack = 8.0;
    options.recent_window = 5;
    options.query_threads = 2;
    auto built = std::make_unique<MovingObjectStore>(options);
    ReportStream stream(config);
    for (const StreamedReport& r :
         stream.Take(static_cast<size_t>(kObjects) * kPeriods * kPeriod)) {
      HPM_CHECK(built->ReportLocation(r.object_id, r.location).ok());
    }
    return built;
  }();
  return *store;
}

/// One 1,000-id PredictLocationBatch over the whole fleet per iteration,
/// the horizon cycling through 1..19 so both FQP and BQP run. Wall time:
/// the batch fans out over the store's 2 query threads.
void BM_PredictBatch(benchmark::State& state) {
  const MovingObjectStore& store = PredictBatchStore();
  const std::vector<ObjectId> ids = store.ObjectIds();
  const Timestamp now =
      static_cast<Timestamp>(store.HistoryLength(ids.front())) - 1;
  Timestamp horizon = 0;
  size_t pattern_answers = 0;
  for (auto _ : state) {
    horizon = horizon % 19 + 1;
    const auto batch = store.PredictLocationBatch(ids, now + horizon, 2);
    benchmark::DoNotOptimize(batch.data());
    for (const auto& answer : batch) {
      HPM_CHECK(answer.ok());
      if (answer->front().source == PredictionSource::kPattern) {
        ++pattern_answers;
      }
    }
  }
  state.counters["pattern_share"] =
      static_cast<double>(pattern_answers) /
      static_cast<double>(state.iterations() * ids.size());
}
BENCHMARK(BM_PredictBatch)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Ten queries at each horizon 1..19: a fixed count, so the per-query
/// object counts repeat exactly from run to run.
constexpr int kFleetQueryIterations = 190;

/// Reports the fleet queries' per-query objects_evaluated and
/// objects_pruned since `before` as counters.
void ReportFleetCounters(benchmark::State& state,
                         const MovingObjectStore& store,
                         const MetricsSnapshot& before) {
  const MetricsSnapshot after = store.metrics_snapshot();
  const auto per_query = [&](const std::string& name) {
    return static_cast<double>(after.counter(name) - before.counter(name)) /
           static_cast<double>(state.iterations());
  };
  state.counters["objects_evaluated"] =
      per_query("store.objects_evaluated");
  state.counters["objects_pruned"] = per_query("store.objects_pruned");
}

/// One predictive range query per iteration over the batch store's fleet:
/// a 200 x 200 box at a uniform position (the repository benchmark's
/// box), the horizon cycling through 1..19 as BM_PredictBatch does.
void BM_FleetRange(benchmark::State& state) {
  const MovingObjectStore& store = PredictBatchStore();
  const Timestamp now =
      static_cast<Timestamp>(store.HistoryLength(store.ObjectIds().front())) -
      1;
  Random rng(7);
  Timestamp horizon = 0;
  const MetricsSnapshot before = store.metrics_snapshot();
  for (auto _ : state) {
    horizon = horizon % 19 + 1;
    const Point corner(rng.UniformDouble(0.0, 800.0),
                       rng.UniformDouble(0.0, 800.0));
    const auto result = store.PredictiveRangeQuery(
        BoundingBox(corner, Point(corner.x + 200.0, corner.y + 200.0)),
        now + horizon);
    HPM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.data());
  }
  ReportFleetCounters(state, store, before);
}
BENCHMARK(BM_FleetRange)
    ->Iterations(kFleetQueryIterations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// One predictive 10-nearest-neighbour query per iteration over the batch
/// store's fleet, from a uniform target, the horizon cycling through
/// 1..19.
void BM_FleetKnn(benchmark::State& state) {
  const MovingObjectStore& store = PredictBatchStore();
  const Timestamp now =
      static_cast<Timestamp>(store.HistoryLength(store.ObjectIds().front())) -
      1;
  Random rng(8);
  Timestamp horizon = 0;
  const MetricsSnapshot before = store.metrics_snapshot();
  for (auto _ : state) {
    horizon = horizon % 19 + 1;
    const Point target(rng.UniformDouble(0.0, 1000.0),
                       rng.UniformDouble(0.0, 1000.0));
    const auto result =
        store.PredictiveNearestNeighbors(target, now + horizon, 10);
    HPM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.data());
  }
  ReportFleetCounters(state, store, before);
}
BENCHMARK(BM_FleetKnn)
    ->Iterations(kFleetQueryIterations)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hpm

BENCHMARK_MAIN();
