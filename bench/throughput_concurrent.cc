// Concurrent serving throughput of the sharded MovingObjectStore.
//
// Measures ingest (ReportLocation), query (PredictLocation) and mixed
// (alternating report/predict) throughput in operations per second at
// 1, 2, 4, … client threads against one shared store, and emits the
// series as JSON — to stdout and to a file (default
// BENCH_throughput.json, override with --out PATH) so successive runs
// leave a perf trajectory in the repo.
//
// Client threads own disjoint object ranges for ingest (the store
// orders same-object reports by arrival, so sharing objects would
// measure scheduler noise, not the store). Queries are read-only and
// round-robin over the whole fleet. More threads than the machine's
// hardware threads would measure time-slicing, not parallelism, so the
// series stops at hardware_threads (the JSON records it).
//
// --overload additionally exercises the overload-control ladder
// (docs/ROBUSTNESS.md): an uncontended baseline of range queries is
// measured first, then 4x the client threads are thrown at a store
// configured with admission control and queue-depth shedding. Every
// response is classified full / degraded(Overloaded) / shed
// (kUnavailable + retry-after), and the p50/p99 latency of *accepted*
// work is reported next to the baseline — the resilience claim is that
// accepted p99 stays within ~2x of uncontended p99 while the excess is
// shed instead of queued. The overloaded store's pipeline-stage
// histograms (admit/plan/fanout/merge, see docs/OBSERVABILITY.md) are
// dumped alongside so a latency regression can be localised to a stage
// straight from the JSON.
//
// --durability measures the price of the write-ahead report journal
// (docs/ROBUSTNESS.md): single-threaded ingest ops/sec with the journal
// off, then at each sync policy (none / interval / every_record) into a
// scratch directory, with the store's wal.appended / wal.synced counters
// recorded so the JSON itself proves which policy actually ran.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/stopwatch.h"
#include "io/wal.h"
#include "server/object_store.h"

namespace {

using namespace hpm;

constexpr Timestamp kPeriod = 20;
constexpr uint64_t kDefaultSeed = 20260805;
constexpr int kObjects = 32;
constexpr int kTrainPeriods = 5;
constexpr int kIngestOpsPerThread = 4000;
constexpr int kQueryOpsPerThread = 2000;
constexpr int kMixedOpsPerThread = 2000;

Point Route(ObjectId id, Timestamp t) {
  return {100.0 * static_cast<double>(t % kPeriod) + 50.0,
          500.0 + 1000.0 * static_cast<double>(id)};
}

ObjectStoreOptions StoreOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 8;
  options.predictor.region_match_slack = 8.0;
  options.min_training_periods = kTrainPeriods;
  options.recent_window = 5;
  options.num_shards = 8;
  options.query_threads = 1;  // Scaling comes from client threads here.
  return options;
}

/// Trains kObjects objects into `store` (setup, untimed).
void WarmUp(MovingObjectStore* store) {
  for (ObjectId id = 0; id < kObjects; ++id) {
    for (Timestamp t = 0; t < kTrainPeriods * kPeriod; ++t) {
      const Status status = store->ReportLocation(id, Route(id, t));
      if (!status.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     status.ToString().c_str());
        std::abort();
      }
    }
  }
}

/// A store with kObjects trained objects (setup, untimed).
MovingObjectStore MakeWarmStore() {
  MovingObjectStore store(StoreOptions());
  WarmUp(&store);
  return store;
}

/// Runs `op(thread_index, i, rng)` kOps times on each of `threads`
/// threads and returns aggregate operations per second. Each worker owns
/// a Random stream derived from `seed` and its index, so a run is
/// reproducible from the seed recorded in the output JSON.
template <typename Op>
double MeasureOps(int threads, int ops_per_thread, uint64_t seed, Op op) {
  Stopwatch watch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([w, ops_per_thread, seed, &op] {
      Random rng(seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1));
      for (int i = 0; i < ops_per_thread; ++i) op(w, i, rng);
    });
  }
  for (std::thread& t : workers) t.join();
  const double seconds = watch.ElapsedSeconds();
  return static_cast<double>(threads) * ops_per_thread /
         (seconds > 0 ? seconds : 1e-9);
}

struct ThreadPoint {
  int threads = 0;
  double ingest_ops = 0;
  double query_ops = 0;
  double mixed_ops = 0;
};

/// GPS-style measurement noise on a route point.
Point Jitter(Random& rng, Point p) {
  p.x += rng.Gaussian(0.0, 2.0);
  p.y += rng.Gaussian(0.0, 2.0);
  return p;
}

ThreadPoint RunAtThreadCount(int threads, uint64_t seed) {
  ThreadPoint point;
  point.threads = threads;

  // Ingest: each thread reports into its own slice of the fleet, with
  // per-report jitter so the store sees realistic noisy samples.
  {
    MovingObjectStore store = MakeWarmStore();
    const int span = kObjects / threads;
    point.ingest_ops = MeasureOps(
        threads, kIngestOpsPerThread, seed,
        [&store, span](int w, int i, Random& rng) {
          const ObjectId id = static_cast<ObjectId>(w * span + i % span);
          const Timestamp t =
              static_cast<Timestamp>(kTrainPeriods * kPeriod + i / span);
          (void)store.ReportLocation(id, Jitter(rng, Route(id, t)));
        });
  }

  // Query: read-only point predictions over randomly drawn objects.
  {
    MovingObjectStore store = MakeWarmStore();
    const Timestamp tq = kTrainPeriods * kPeriod + 3;
    point.query_ops = MeasureOps(
        threads, kQueryOpsPerThread, seed,
        [&store, tq](int /*w*/, int /*i*/, Random& rng) {
          const ObjectId id = static_cast<ObjectId>(rng.Uniform(kObjects));
          (void)store.PredictLocation(id, tq);
        });
  }

  // Mixed: alternating report (own slice) and predict (whole fleet).
  {
    MovingObjectStore store = MakeWarmStore();
    const int span = kObjects / threads;
    point.mixed_ops = MeasureOps(
        threads, kMixedOpsPerThread, seed,
        [&store, span](int w, int i, Random& rng) {
          if (i % 2 == 0) {
            const ObjectId id = static_cast<ObjectId>(w * span + i % span);
            const Timestamp t =
                static_cast<Timestamp>(kTrainPeriods * kPeriod + i / span);
            (void)store.ReportLocation(id, Jitter(rng, Route(id, t)));
          } else {
            const ObjectId id = static_cast<ObjectId>(rng.Uniform(kObjects));
            (void)store.PredictLocation(id, 1000000 + i);
          }
        });
  }
  return point;
}

// ---- Overload mode ---------------------------------------------------------

constexpr int kMaxInFlight = 2;  ///< The store's serving capacity.
constexpr int kOverloadThreads = 4 * kMaxInFlight;  // 4x offered load.
constexpr int kBaselineThreads = 1;  ///< Truly uncontended reference run.
constexpr int kOverloadOpsPerThread = 500;
/// Per-query deadline; queries reaching the store with less than
/// kMinHeadroomUs of it left (client-side queueing under overload) are
/// answered RMF-only instead of blowing the budget on the pattern side.
constexpr int kDeadlineUs = 5000;
constexpr int kMinHeadroomUs = 2000;

struct OverloadReport {
  uint64_t full = 0;      ///< Admitted, answered with the full hybrid model.
  uint64_t degraded = 0;  ///< Admitted, answered RMF-only (rung 1).
  uint64_t shed = 0;      ///< Rejected kUnavailable + retry-after (rung 2).
  uint64_t other = 0;     ///< Anything else — must stay 0.
  /// The overloaded store's metrics: its ladder counters and stage
  /// histograms.
  MetricsSnapshot metrics;
  double baseline_p50_us = 0;
  double baseline_p99_us = 0;
  double accepted_p50_us = 0;
  double accepted_p99_us = 0;
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

/// The overload store: same model configuration as the scaling series,
/// plus the ladder — an in-flight cap sized to the baseline client
/// count, a bounded fan-out queue, and queue-depth shedding.
ObjectStoreOptions OverloadStoreOptions() {
  ObjectStoreOptions options = StoreOptions();
  options.query_threads = 2;
  options.admission.max_in_flight = kMaxInFlight;
  options.max_pool_queue = 16;
  // Rung 1 fires on either pressure signal: fan-out backlog, or a query
  // arriving with most of its deadline already burned in client-side
  // queueing (the dominant signal when admission bounds the backlog).
  options.degrade_queue_depth = 1;
  options.degrade_min_headroom = std::chrono::microseconds(kMinHeadroomUs);
  return options;
}

/// Fires closed-loop range queries from `threads` clients. Each logical
/// request carries one deadline; a shed attempt honors the server's
/// retry-after hint and retries against the *same* deadline (so a
/// readmitted request arrives with its headroom partly burned — the
/// rung-1 trigger), giving up when the deadline runs out. Accepted
/// latencies record the service time of the successful attempt.
void DriveRangeQueries(const MovingObjectStore& store, int threads,
                       uint64_t seed, OverloadReport* report,
                       std::vector<double>* accepted_us) {
  const Timestamp tq = kTrainPeriods * kPeriod + 3;
  std::mutex merge_mutex;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Random rng(seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1));
      OverloadReport local;
      std::vector<double> latencies;
      latencies.reserve(kOverloadOpsPerThread);
      for (int i = 0; i < kOverloadOpsPerThread; ++i) {
        // A window around a random object's lane, wide enough in x to
        // hold both the pattern answer and the RMF extrapolation (which
        // overshoots the sawtooth route's wrap-around), so hits are
        // non-empty and degraded answers stay visible to the classifier.
        const double lane =
            500.0 + 1000.0 * static_cast<double>(rng.Uniform(kObjects));
        const BoundingBox range({-1000.0, lane - 600.0},
                                {3000.0, lane + 600.0});
        const Deadline deadline =
            Deadline::After(std::chrono::microseconds(kDeadlineUs));
        for (;;) {
          const auto start = std::chrono::steady_clock::now();
          const StatusOr<FleetQueryResult> result =
              store.PredictiveRangeQuery(range, tq, /*k_per_object=*/3,
                                         deadline);
          const double elapsed_us =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (result.ok()) {
            latencies.push_back(elapsed_us);
            const bool rmf_only = std::any_of(
                result->hits.begin(), result->hits.end(),
                [](const RangeHit& hit) {
                  return hit.prediction.degraded != DegradedReason::kNone;
                });
            if (rmf_only) {
              ++local.degraded;
            } else {
              ++local.full;
            }
            break;
          }
          const auto hint = RetryAfterHint(result.status());
          if (result.status().code() != StatusCode::kUnavailable ||
              !hint.has_value()) {
            ++local.other;  // Outside the ladder's contract.
            break;
          }
          if (deadline.expired()) {
            ++local.shed;  // Out of budget: the request is dropped.
            break;
          }
          std::this_thread::sleep_for(
              std::min<Deadline::Clock::duration>(*hint,
                                                  deadline.remaining()));
        }
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      report->full += local.full;
      report->degraded += local.degraded;
      report->shed += local.shed;
      report->other += local.other;
      accepted_us->insert(accepted_us->end(), latencies.begin(),
                          latencies.end());
    });
  }
  for (std::thread& t : workers) t.join();
}

OverloadReport RunOverload(uint64_t seed) {
  OverloadReport report;

  // Uncontended baseline: the same store configuration, driven at the
  // in-flight cap so nothing is shed or degraded.
  {
    MovingObjectStore store(OverloadStoreOptions());
    WarmUp(&store);
    OverloadReport baseline;
    std::vector<double> latencies;
    DriveRangeQueries(store, kBaselineThreads, seed, &baseline, &latencies);
    std::sort(latencies.begin(), latencies.end());
    report.baseline_p50_us = Percentile(latencies, 0.50);
    report.baseline_p99_us = Percentile(latencies, 0.99);
  }

  // 4x offered load against a fresh store: classify every response.
  {
    MovingObjectStore store(OverloadStoreOptions());
    WarmUp(&store);
    std::vector<double> latencies;
    DriveRangeQueries(store, kOverloadThreads, seed, &report, &latencies);
    std::sort(latencies.begin(), latencies.end());
    report.accepted_p50_us = Percentile(latencies, 0.50);
    report.accepted_p99_us = Percentile(latencies, 0.99);
    report.metrics = store.metrics_snapshot();
  }
  return report;
}

// ---- Durability mode -------------------------------------------------------

constexpr int kDurabilityOpsPerThread = 4000;

struct DurabilityPoint {
  std::string mode;        ///< "off", "none", "interval", "every_record".
  double ingest_ops = 0;   ///< Single-threaded ReportLocation ops/sec.
  uint64_t appended = 0;   ///< wal.appended after the timed run.
  uint64_t synced = 0;     ///< wal.synced — proves the policy differed.
  bool durable = true;     ///< False would mean the journal degraded.
};

/// Times single-threaded ingest with the journal in `mode`. One thread:
/// the journal serialises appends per shard anyway, and a single lane
/// makes the per-policy cost directly comparable.
DurabilityPoint MeasureDurability(const char* mode, uint64_t seed) {
  DurabilityPoint point;
  point.mode = mode;
  ObjectStoreOptions options = StoreOptions();
  std::string scratch;
  if (std::strcmp(mode, "off") != 0) {
    scratch = std::filesystem::temp_directory_path().string() +
              "/hpm_bench_wal_" + mode;
    std::filesystem::remove_all(scratch);
    options.durability.wal_dir = scratch + "/wal";
    if (std::strcmp(mode, "none") == 0) {
      options.durability.sync_policy = WalSyncPolicy::kNone;
    } else if (std::strcmp(mode, "interval") == 0) {
      options.durability.sync_policy = WalSyncPolicy::kInterval;
    } else {
      options.durability.sync_policy = WalSyncPolicy::kEveryRecord;
    }
  }
  {
    MovingObjectStore store(options);
    WarmUp(&store);
    // Count the journal traffic of the timed window only, not warm-up's.
    const MetricsSnapshot before = store.metrics_snapshot();
    point.ingest_ops = MeasureOps(
        1, kDurabilityOpsPerThread, seed, [&store](int, int i, Random& rng) {
          const ObjectId id = static_cast<ObjectId>(i % kObjects);
          const Timestamp t =
              static_cast<Timestamp>(kTrainPeriods * kPeriod + i / kObjects);
          (void)store.ReportLocation(id, Jitter(rng, Route(id, t)));
        });
    const MetricsSnapshot after = store.metrics_snapshot();
    point.appended =
        after.counter("wal.appended") - before.counter("wal.appended");
    point.synced = after.counter("wal.synced") - before.counter("wal.synced");
    point.durable = scratch.empty() ? true : store.wal_durable();
  }
  if (!scratch.empty()) std::filesystem::remove_all(scratch);
  return point;
}

std::string DurabilityJson(const std::vector<DurabilityPoint>& points) {
  std::string json = "  \"durability\": [\n";
  char buf[192];
  for (size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"ingest_ops_per_sec\": %.0f, "
                  "\"wal_appended\": %" PRIu64 ", \"wal_synced\": %" PRIu64
                  ", \"durable\": %s}%s\n",
                  points[i].mode.c_str(), points[i].ingest_ops,
                  points[i].appended, points[i].synced,
                  points[i].durable ? "true" : "false",
                  i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  return json;
}

/// Pipeline-stage breakdown of the overloaded store: where admitted
/// queries spent their time (histogram upper-bound percentiles, so the
/// numbers are conservative per docs/OBSERVABILITY.md).
std::string StagesJson(const MetricsSnapshot& metrics) {
  static constexpr const char* kStages[] = {"admit", "plan", "fanout",
                                            "merge"};
  std::string json = "  \"stages\": {";
  char buf[160];
  for (size_t i = 0; i < std::size(kStages); ++i) {
    const std::string name = std::string("stage.") + kStages[i] + "_us";
    const LatencyHistogram::Snapshot* snap = metrics.histogram(name);
    const LatencyHistogram::Snapshot empty;
    if (snap == nullptr) snap = &empty;
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"count\": %" PRIu64
                  ", \"mean_us\": %.1f, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f}",
                  i == 0 ? "" : ",", kStages[i], snap->count,
                  snap->mean_micros(), snap->PercentileMicros(50),
                  snap->PercentileMicros(99));
    json += buf;
  }
  json += "},\n";
  return json;
}

std::string OverloadJson(const OverloadReport& report) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"overload\": {\"baseline_threads\": %d, \"overload_threads\": %d,\n"
      "    \"full\": %" PRIu64 ", \"degraded\": %" PRIu64
      ", \"shed\": %" PRIu64 ", \"other\": %" PRIu64 ",\n"
      "    \"store_admitted\": %" PRIu64 ", \"store_shed\": %" PRIu64
      ", \"store_degraded_answers\": %" PRIu64 ",\n"
      "    \"baseline_p50_us\": %.1f, \"baseline_p99_us\": %.1f,\n"
      "    \"accepted_p50_us\": %.1f, \"accepted_p99_us\": %.1f},\n",
      kBaselineThreads, kOverloadThreads, report.full, report.degraded,
      report.shed, report.other,
      report.metrics.counter_sum("store.admitted."),
      report.metrics.counter_sum("store.shed."),
      report.metrics.counter("store.degraded_predictions"),
      report.baseline_p50_us, report.baseline_p99_us,
      report.accepted_p50_us, report.accepted_p99_us);
  return buf + StagesJson(report.metrics);
}

std::string ToJson(const std::vector<ThreadPoint>& points, uint64_t seed,
                   const std::string& overload_json,
                   const std::string& durability_json) {
  std::string json = "{\n  \"bench\": \"throughput_concurrent\",\n";
  char buf[256];
  // The host stamp: cores, compiler and optimisation, next to the seed
  // and the fleet size.
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const char* const build = "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
  const char* const build = "optimized";
#else
  const char* const build = "unoptimized";
#endif
#if defined(__clang__)
  const char* const compiler = "clang";
#elif defined(__GNUC__)
  const char* const compiler = "gcc";
#else
  const char* const compiler = "unknown";
#endif
  std::snprintf(buf, sizeof(buf),
                "  \"objects\": %d,\n  \"num_shards\": %d,\n"
                "  \"hardware_threads\": %u,\n  \"compiler\": \"%s %s\",\n"
                "  \"build\": \"%s\",\n  \"rng_seed\": %" PRIu64 ",\n",
                kObjects, StoreOptions().num_shards,
                std::thread::hardware_concurrency(), compiler, __VERSION__,
                build, seed);
  json += buf;
  json += overload_json;    // Empty unless --overload ran.
  json += durability_json;  // Empty unless --durability ran.
  json += "  \"series\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, "
                  "\"ingest_ops_per_sec\": %.0f, "
                  "\"query_ops_per_sec\": %.0f, "
                  "\"mixed_ops_per_sec\": %.0f}%s\n",
                  points[i].threads,
                  points[i].ingest_ops, points[i].query_ops,
                  points[i].mixed_ops, i + 1 < points.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  uint64_t seed = kDefaultSeed;
  bool overload = false;
  bool durability = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--durability") == 0) {
      durability = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out PATH] [--seed N] [--overload] "
                   "[--durability]\n",
                   argv[0]);
      return 1;
    }
  }

  std::string overload_json;
  if (overload) {
    const OverloadReport report = RunOverload(seed);
    overload_json = OverloadJson(report);
    std::fprintf(stderr,
                 "overload done: full=%" PRIu64 " degraded=%" PRIu64
                 " shed=%" PRIu64 " other=%" PRIu64 "\n",
                 report.full, report.degraded, report.shed, report.other);
  }

  std::string durability_json;
  if (durability) {
    std::vector<DurabilityPoint> modes;
    for (const char* mode : {"off", "none", "interval", "every_record"}) {
      modes.push_back(MeasureDurability(mode, seed));
      std::fprintf(stderr, "durability mode=%s done: %.0f ops/s\n", mode,
                   modes.back().ingest_ops);
    }
    durability_json = DurabilityJson(modes);
  }

  // Powers of two up to the hardware thread count (0 means unknown: run
  // one thread), and no more threads than objects to split between them.
  const int max_threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kObjects);
  std::vector<ThreadPoint> points;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    points.push_back(RunAtThreadCount(threads, seed));
    std::fprintf(stderr, "threads=%d done\n", threads);
  }

  const std::string json =
      ToJson(points, seed, overload_json, durability_json);
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
