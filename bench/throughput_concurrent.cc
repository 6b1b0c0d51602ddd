// Concurrent serving throughput of the sharded MovingObjectStore.
//
// Measures ingest (ReportLocation), query (PredictLocation) and mixed
// (alternating report/predict) throughput in operations per second at
// 1, 2, 4 and 8 client threads against one shared store, and emits the
// series as JSON — to stdout and to a file (default
// BENCH_throughput.json, override with --out PATH) so successive runs
// leave a perf trajectory in the repo.
//
// Client threads own disjoint object ranges for ingest (the store
// orders same-object reports by arrival, so sharing objects would
// measure scheduler noise, not the store). Queries are read-only and
// round-robin over the whole fleet. Scaling beyond the machine's core
// count measures time-slicing, not parallelism — on a single-core host
// every series is flat by construction — so every series row whose
// thread count exceeds hardware_threads is stamped
// "oversubscribed": true (and warned about on stderr) to keep that
// provenance in the JSON itself.
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
//
// --rebuild prices where drift-triggered rebuilds run
// (docs/ARCHITECTURE.md, incremental mining). A drifting ReportStream
// drives each run twice over the same reports and the same drift
// threshold: once with rebuilds inline on the reporting thread (the
// default) and once on the background worker. Each run has a
// closed-loop ingest burst (pricing the write path) and a paced phase —
// the stream replayed at its arrival stamps while paced query threads
// measure predictive range queries. The claim is that background
// rebuilds ride below query traffic (the worker runs at idle scheduling
// priority, so it only consumes CPU the pacing leaves free): the
// accepted-query p99 — read from the store's own op.range_us
// power-of-two histogram, with client-side latencies reported alongside
// — must land in the same or a lower bucket in the background run as
// in the inline one, and the rebuild.* counters in the JSON prove both
// runs actually rebuilt.

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

#include <atomic>

#include "common/metrics.h"
#include "common/retry.h"

#include "common/random.h"
#include "common/stopwatch.h"
#include "datagen/report_stream.h"
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
  /// True when this row ran more client threads than the machine has
  /// hardware threads: the numbers then measure time-slicing overhead,
  /// not scaling, and must not be read as a parallelism claim.
  bool oversubscribed = false;
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
  // hardware_concurrency() may return 0 ("unknown"); only a positive
  // answer can prove oversubscription.
  const unsigned hardware = std::thread::hardware_concurrency();
  point.oversubscribed =
      hardware != 0 && static_cast<unsigned>(threads) > hardware;
  if (point.oversubscribed) {
    std::fprintf(stderr,
                 "warning: %d client threads on %u hardware threads — "
                 "this row measures time-slicing, not scaling "
                 "(stamped \"oversubscribed\": true)\n",
                 threads, hardware);
  }

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

// ---- Rebuild mode ----------------------------------------------------------

/// Closed-loop ingest burst: prices the write path (miner accounting +
/// inline rebuilds or their scheduling).
constexpr int kRebuildBurstOps = 20000;
/// Paced serving phase: the stream replayed at its arrival stamps while
/// query threads measure latency — the window the p99 acceptance uses.
constexpr int kRebuildPacedOps = 240000;
constexpr double kRebuildRatePerSecond = 24000.0;
/// One querier on purpose: on a 1-core host two query threads collide
/// with *each other* (two multi-ms range computes stack), which swamps
/// the tail we are trying to attribute to background rebuilds.
constexpr int kRebuildQueryThreads = 1;
/// A larger fleet than the base bench: the predictive range query fans
/// out one prediction per object, so fleet size sets per-query compute
/// (~9ms at 128). That puts the service-time p50 just above the 8192us
/// histogram bucket edge, leaving most of the [8192,16384) bucket as
/// headroom — ingest collisions and hypervisor jitter (~1-2ms) land
/// inside the bucket in both modes instead of flipping a
/// boundary-straddling tail run to run.
constexpr int kRebuildObjects = 128;
/// Tuned so the paced window sees a steady trickle of rebuilds (roughly
/// one in flight at a time), not a storm that saturates the worker —
/// "continuous rebuilds" means the fleet keeps refreshing, not that
/// every object rebuilds every drift event.
constexpr double kRebuildThreshold = 8.0;

struct RebuildPoint {
  bool background = false;
  double ingest_ops = 0;  ///< Streaming ReportLocation ops/sec (1 thread).
  double query_ops = 0;   ///< Accepted PredictLocation ops/sec (2 threads).
  uint64_t accepted = 0;  ///< Queries answered ok during the timed window.
  uint64_t rejected = 0;  ///< Queries that returned an error.
  /// Client-side latency of accepted queries (includes thread wake-up
  /// noise on an oversubscribed host — informational).
  double accepted_p50_us = 0;
  double accepted_p99_us = 0;
  /// The store's own op.range_us histogram: service time of accepted
  /// range queries. Its p99 bucket (floor(log2(us)), the histogram's
  /// own power-of-two bucketing) is the acceptance criterion:
  /// bucket(background) <= bucket(inline).
  double range_p99_us = 0;
  int p99_bucket = 0;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t deferred = 0;
  uint64_t dropped = 0;
  uint64_t build_count = 0;   ///< rebuild.build_us histogram count.
  double build_p99_us = 0;    ///< rebuild.build_us histogram p99.
};

int PowerOfTwoBucket(double us) {
  uint64_t v = static_cast<uint64_t>(us);
  int bucket = 0;
  while (v > 1) {
    v >>= 1;
    ++bucket;
  }
  return bucket;
}

/// The drifting fleet stream driving both rebuild runs: routes re-draw
/// 60% of their waypoints every 4 periods, so the miner's pattern set
/// keeps going stale and both stores keep rebuilding.
ReportStreamConfig RebuildStreamConfig(uint64_t seed) {
  ReportStreamConfig config;
  config.num_objects = kRebuildObjects;
  config.period = kPeriod;
  config.pattern_probability = 0.95;
  config.noise_sigma = 2.0;
  config.drift_every_periods = 6;
  config.drift_fraction = 0.5;
  config.rate_per_second = kRebuildRatePerSecond;
  config.arrival_jitter = 0.2;
  config.seed = seed;
  return config;
}

ObjectStoreOptions RebuildStoreOptions(bool background) {
  ObjectStoreOptions options = StoreOptions();
  options.rebuild.background = background;
  options.rebuild.miner.window_periods = 8;
  options.rebuild.drift_threshold = kRebuildThreshold;
  // Two knobs keep rebuilds below query traffic: idle_priority (default
  // on) makes a running build yield the core to any waking query or
  // ingest thread, and the start throttle bounds the worker's duty
  // cycle when the whole drifting fleet requests rebuilds at once.
  // Duty cycle is the one that matters on a 1-core host: a build churns
  // megabytes of mining state, and a back-to-back build storm evicts
  // the fleet's frozen TPTs from cache so every query walks cold —
  // that inflates the query *median*, which no scheduling priority can
  // undo. Two starts a second is still continuous refresh (the whole
  // fleet turns over in about a minute) with >90% of the window clean.
  options.rebuild.min_rebuild_interval = std::chrono::milliseconds(500);
  // Queue bound sized to the fleet: every object can have a rebuild
  // pending at once without tripping the overflow drop path.
  options.rebuild.max_pending = kRebuildObjects;
  return options;
}

/// One inline/background run. Warm the fleet from the stream and flush
/// the bootstrap trains so both modes start from a fully-modelled
/// store, then:
///   burst phase — closed-loop ingest, pricing the write path;
///   paced phase — the stream replayed at its arrival stamps while
///     kRebuildQueryThreads paced query threads measure client-side
///     latency. Pacing leaves idle CPU, which is precisely what the
///     idle-priority rebuild worker consumes; the p99 acceptance is
///     evaluated over this phase.
/// Rebuild counter deltas cover exactly the paced window; build_count /
/// build_p99_us are the store's whole-life rebuild.build_us histogram.
RebuildPoint MeasureRebuildPoint(bool background, uint64_t seed) {
  RebuildPoint point;
  point.background = background;
  MovingObjectStore store(RebuildStoreOptions(background));
  // Both runs consume the identical stream: same seed, same drift
  // schedule, so the only difference is where rebuilds run.
  ReportStream stream(RebuildStreamConfig(seed));
  // One period past the training threshold: the miner bootstraps an
  // object's first model at the period boundary *after* it has
  // min_training_periods complete periods, so stopping exactly at the
  // threshold would leave the whole fleet modelless.
  const size_t warm_reports =
      static_cast<size_t>(kRebuildObjects) * (kTrainPeriods + 1) * kPeriod;
  for (size_t i = 0; i < warm_reports; ++i) {
    const StreamedReport report = stream.Next();
    const Status status = store.ReportLocation(
        static_cast<ObjectId>(report.object_id), report.location);
    if (!status.ok()) {
      std::fprintf(stderr, "rebuild warm-up failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
  }
  if (const Status status = store.FlushRebuilds(); !status.ok()) {
    std::fprintf(stderr, "rebuild bootstrap flush failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }

  // Burst phase: closed-loop ingest, nothing else running.
  {
    Stopwatch watch;
    for (int i = 0; i < kRebuildBurstOps; ++i) {
      const StreamedReport report = stream.Next();
      (void)store.ReportLocation(static_cast<ObjectId>(report.object_id),
                                 report.location);
    }
    const double seconds = watch.ElapsedSeconds();
    point.ingest_ops = kRebuildBurstOps / (seconds > 0 ? seconds : 1e-9);
  }
  // Quiesce the burst's rebuild backlog (untimed): the paced phase
  // should see rebuilds at the stream's natural drift rate, not a
  // saturated queue of stale requests from the burst. The counter
  // baseline is taken after the flush so the deltas cover exactly the
  // paced window.
  (void)store.FlushRebuilds();
  const MetricsSnapshot before = store.metrics_snapshot();

  // Paced phase: replay at arrival stamps, race paced query threads.
  std::atomic<bool> stop{false};
  std::mutex merge_mutex;
  std::vector<double> accepted_us;
  uint64_t rejected = 0;

  std::vector<std::thread> queriers;
  queriers.reserve(kRebuildQueryThreads);
  for (int w = 0; w < kRebuildQueryThreads; ++w) {
    queriers.emplace_back([&store, &stop, &merge_mutex, &accepted_us,
                           &rejected, seed, w] {
      Random rng(seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1));
      std::vector<double> latencies;
      uint64_t local_rejected = 0;
      // Predictions must target a time after the object's last report,
      // and the ingest thread keeps advancing that frontier — so query
      // past where the stream can reach during the timed window.
      const Timestamp frontier = static_cast<Timestamp>(
          (kTrainPeriods + 1) * kPeriod +
          (kRebuildBurstOps + kRebuildPacedOps) / kRebuildObjects + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        // The serving workload: a full-extent predictive range query fans
        // out a prediction per object and merges the hits — several
        // milliseconds of work on purpose. The acceptance compares p99
        // power-of-two buckets, so the workload is sized to put p50 just
        // above a bucket's lower edge: the bucket's width then absorbs
        // scheduler-collision and hypervisor noise that would make a
        // boundary-straddling tail flip buckets run to run.
        const BoundingBox range({0.0, 0.0}, {1000.0, 1000.0});
        const Timestamp tq = frontier + static_cast<Timestamp>(
                                            rng.Uniform(5 * kPeriod));
        const auto start = std::chrono::steady_clock::now();
        const StatusOr<FleetQueryResult> result =
            store.PredictiveRangeQuery(range, tq, /*k_per_object=*/3);
        const double elapsed_us = std::chrono::duration<double, std::micro>(
                                      std::chrono::steady_clock::now() - start)
                                      .count();
        if (result.ok()) {
          latencies.push_back(elapsed_us);
        } else {
          ++local_rejected;
        }
        // Open-loop-ish think time: latency under a realistic paced
        // load, not query saturation — the idle headroom is what the
        // rebuild worker lives on.
        std::this_thread::sleep_for(
            std::chrono::microseconds(1000 + rng.Uniform(1000)));
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      accepted_us.insert(accepted_us.end(), latencies.begin(),
                         latencies.end());
      rejected += local_rejected;
    });
  }

  Stopwatch watch;
  double base_stamp = 0;
  for (int i = 0; i < kRebuildPacedOps; ++i) {
    const StreamedReport report = stream.Next();
    if (i == 0) base_stamp = report.arrival_seconds;
    const double target = report.arrival_seconds - base_stamp;
    const double now = watch.ElapsedSeconds();
    if (target > now + 100e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(target - now));
    }
    (void)store.ReportLocation(static_cast<ObjectId>(report.object_id),
                               report.location);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : queriers) t.join();
  const double paced_seconds = watch.ElapsedSeconds();

  point.accepted = accepted_us.size();
  point.rejected = rejected;
  point.query_ops = static_cast<double>(point.accepted) /
                    (paced_seconds > 0 ? paced_seconds : 1e-9);
  std::sort(accepted_us.begin(), accepted_us.end());
  point.accepted_p50_us = Percentile(accepted_us, 0.50);
  point.accepted_p99_us = Percentile(accepted_us, 0.99);

  const MetricsSnapshot after = store.metrics_snapshot();
  if (const LatencyHistogram::Snapshot* range_hist =
          after.histogram("op.range_us")) {
    point.range_p99_us = range_hist->PercentileMicros(99);
    point.p99_bucket = PowerOfTwoBucket(point.range_p99_us);
  }
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  point.scheduled = delta("rebuild.scheduled");
  point.completed = delta("rebuild.completed");
  point.failed = delta("rebuild.failed");
  point.deferred = delta("rebuild.deferred");
  point.dropped = delta("rebuild.dropped");
  if (const LatencyHistogram::Snapshot* build =
          after.histogram("rebuild.build_us")) {
    point.build_count = build->count;
    point.build_p99_us = build->PercentileMicros(99);
  }
  return point;
}

std::string RebuildJson(const std::vector<RebuildPoint>& points) {
  std::string json = "  \"rebuild\": [\n";
  char buf[512];
  for (size_t i = 0; i < points.size(); ++i) {
    const RebuildPoint& p = points[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"rebuilds\": \"%s\", \"ingest_ops_per_sec\": %.0f, "
        "\"query_ops_per_sec\": %.0f,\n"
        "     \"accepted\": %" PRIu64 ", \"rejected\": %" PRIu64
        ", \"accepted_p50_us\": %.1f, \"accepted_p99_us\": %.1f,\n"
        "     \"range_p99_us\": %.1f, \"p99_bucket\": %d,\n"
        "     \"rebuild_scheduled\": %" PRIu64 ", \"rebuild_completed\": %"
        PRIu64 ", \"rebuild_failed\": %" PRIu64 ",\n"
        "     \"rebuild_deferred\": %" PRIu64 ", \"rebuild_dropped\": %" PRIu64
        ", \"build_count\": %" PRIu64 ", \"build_p99_us\": %.1f}%s\n",
        p.background ? "background" : "inline", p.ingest_ops, p.query_ops, p.accepted,
        p.rejected, p.accepted_p50_us, p.accepted_p99_us, p.range_p99_us,
        p.p99_bucket, p.scheduled, p.completed, p.failed, p.deferred,
        p.dropped, p.build_count, p.build_p99_us,
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
                   const std::string& durability_json,
                   const std::string& rebuild_json) {
  std::string json = "{\n  \"bench\": \"throughput_concurrent\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"objects\": %d,\n  \"num_shards\": %d,\n"
                "  \"hardware_threads\": %u,\n  \"rng_seed\": %" PRIu64
                ",\n",
                kObjects, StoreOptions().num_shards,
                std::thread::hardware_concurrency(), seed);
  json += buf;
  json += overload_json;    // Empty unless --overload ran.
  json += durability_json;  // Empty unless --durability ran.
  json += rebuild_json;     // Empty unless --rebuild ran.
  json += "  \"series\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"threads\": %d, \"oversubscribed\": %s, "
                  "\"ingest_ops_per_sec\": %.0f, "
                  "\"query_ops_per_sec\": %.0f, "
                  "\"mixed_ops_per_sec\": %.0f}%s\n",
                  points[i].threads,
                  points[i].oversubscribed ? "true" : "false",
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
  bool rebuild = false;
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
    } else if (std::strcmp(argv[i], "--rebuild") == 0) {
      rebuild = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out PATH] [--seed N] [--overload] "
                   "[--durability] [--rebuild]\n",
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

  std::string rebuild_json;
  if (rebuild) {
    std::vector<RebuildPoint> modes;
    for (const bool background : {false, true}) {
      modes.push_back(MeasureRebuildPoint(background, seed));
      const RebuildPoint& p = modes.back();
      std::fprintf(stderr,
                   "rebuild %s done: ingest=%.0f ops/s range_p99=%.1fus "
                   "(bucket %d, client p99 %.1fus) completed=%" PRIu64 "\n",
                   background ? "background" : "inline", p.ingest_ops,
                   p.range_p99_us, p.p99_bucket, p.accepted_p99_us,
                   p.completed);
    }
    if (modes[1].p99_bucket > modes[0].p99_bucket) {
      std::fprintf(stderr,
                   "warning: background p99 bucket %d exceeds inline "
                   "bucket %d\n",
                   modes[1].p99_bucket, modes[0].p99_bucket);
    }
    rebuild_json = RebuildJson(modes);
  }

  std::vector<ThreadPoint> points;
  for (int threads : {1, 2, 4, 8}) {
    points.push_back(RunAtThreadCount(threads, seed));
    std::fprintf(stderr, "threads=%d done\n", threads);
  }

  const std::string json =
      ToJson(points, seed, overload_json, durability_json, rebuild_json);
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
