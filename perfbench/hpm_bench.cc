// The repository benchmark program.
//
// One process populates a MovingObjectStore from a seeded ReportStream,
// serves it through an in-process HpmServer on loopback, drives it from
// HpmClient streams, checks every answer it can against the in-process
// store, and prints the metrics by name and unit. The last stdout line is
// the JSON result; it is printed only when every check passed.
//
//   hpm_bench --workload ingest|fleet-scan --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// perfbench/NOTES.md records why each workload exists, what each metric
// means and what each layer metric is expected to move.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/hybrid_predictor.h"
#include "datagen/report_stream.h"
#include "io/wal.h"
#include "net/client.h"
#include "net/server.h"
#include "server/object_store.h"

#ifndef HPM_BENCH_FLAGS
#define HPM_BENCH_FLAGS "unknown"
#endif

namespace {

using namespace hpm;
using Clock = std::chrono::steady_clock;

// ---- Fixed sizing (the same on every commit; perfbench/NOTES.md) --------

constexpr int kObjects = 1000;
constexpr Timestamp kPeriod = 20;
/// fleet-scan: periods populated in-process during setup.
/// Initial training fires at 5 periods (the library default), so the
/// served models are trained and the sixth period fills the recent window.
constexpr int kServedPeriods = 6;
/// ingest: periods replayed over the wire. Every object crosses its
/// initial training (period 5) and one additive update (period 7, the
/// library's default two-period batch).
constexpr int kIngestPeriods = 7;
/// ingest: replays per end-to-end run, each into a fresh store.
constexpr int kIngestPasses = 3;
/// ingest: object clocks are offset by up to this many ticks in the
/// replay, a whole replay's length, so the fleet's trainings and updates
/// spread over the last three quarters of the stream instead of falling
/// on a few ticks (see IngestReplay).
constexpr int kIngestStagger = kIngestPeriods * kPeriod;
constexpr Timestamp kDistantThreshold = 8;
constexpr int kRecentWindow = 5;
constexpr Timestamp kMaxHorizon = kPeriod - 1;
/// Fan-out pool size, pinned so every workload runs at most 4 busy
/// threads on a 4-core host (fleet-scan: 2 pool workers + the handler's
/// merge + the client, which waits on its socket).
constexpr int kQueryThreads = 2;
constexpr int kHandlerThreads = 4;
/// Setups per end-to-end run; setup_s is their median. An ingest setup
/// (generate the fleet and its replay, open the journal) takes a few tens
/// of milliseconds, so it is repeated more to steady the median.
constexpr int kSetupRepeats = 3;
constexpr int kIngestSetupRepeats = 31;
/// ingest's open-loop reader (the per-layer run): its send rate.
constexpr double kReaderRatePerSecond = 500.0;
constexpr int kEvalQueries = kObjects * kMaxHorizon;
constexpr int kWireCheckStride = 10;
constexpr size_t kPointOracleSample = 500;
/// Timed phases run in rounds; each round pins the process to the next
/// CPU (see PinRound). A multiple of 2, 3, 4 and 8, so the rounds cover
/// every CPU of such a host equally often.
constexpr int kRounds = 24;
/// Probes (see RunMain): range + kNN queries of each kind (enough for 12
/// samples beyond p90), point predicts, and the held-back periods fed as
/// reports. Each is split evenly over the rounds.
constexpr int kProbeFleetQueries = 120;
constexpr int kReportProbePeriods = 2;
constexpr int kProbePredicts = 24000;
constexpr double kRangeSide = 200.0;
constexpr double kExtent = 1000.0;
constexpr int kKnnN = 10;
constexpr int kLayerSampleObjects = 30;
/// The direct mining calls train on the first 5 periods and update with
/// the next 2, as the store does under the library's default thresholds.
constexpr int kDirectTrainPeriods = 5;
constexpr int kDirectUpdatePeriods = 2;
constexpr int kPings = 2000;
constexpr int kWalAppends = 5000;

enum class Workload { kIngest, kFleetScan };

struct Args {
  Workload workload = Workload::kIngest;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "hpm_bench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Die(std::string("missing value for ") + argv[i]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      args.workload_name = value;
      if (value == "ingest") {
        args.workload = Workload::kIngest;
      } else if (value == "fleet-scan") {
        args.workload = Workload::kFleetScan;
      } else {
        Die("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || args.work_dir.empty() || !(args.seconds > 0)) {
    Die("usage: hpm_bench --workload W --seed N --seconds S --trace 0|1 "
        "--work-dir DIR");
  }
  return args;
}

// ---- Small helpers -------------------------------------------------------

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Logs a phase boundary with the time since process start to stderr, so
/// a run's time can be attributed without a profiler.
void Phase(const char* name) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "hpm_bench: %7.2f s  %s\n", SecondsSince(start), name);
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

long ProcStatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtol(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
}

// ---- CPU pinning ---------------------------------------------------------
//
// A closed loop over loopback hands each request from the client thread
// to a handler thread and back. On different CPUs, each hand-off wakes an
// idle virtual CPU, and how long that takes depends on the host's load,
// not on the program: unpinned, it was a third of a loopback predict and
// most of its run-to-run spread. A timed round of point predicts or
// reports therefore pins the client's and the server's threads to one
// CPU, and successive rounds move on to the next CPU, so that a run uses
// each CPU alike. Range and kNN queries run unpinned: a hand-off is a
// negligible share of their time. The store's fan-out workers are never
// pinned, so that no round can leave both of them on one CPU.

/// The CPUs the process may run on, read on first use (before any
/// pinning: main calls it first).
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    tids.push_back(static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10)));
  }
  return tids;
}

void SetAffinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  // A thread that exited since it was listed is simply skipped.
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

/// The stores' fan-out workers, which PinThreads leaves alone.
std::vector<pid_t>& FanOutWorkers() {
  static std::vector<pid_t> tids;
  return tids;
}

/// Records the threads started since `before` as fan-out workers and
/// frees them to run on any CPU (they inherit their starter's pinning).
void FreeFanOutWorkers(const std::vector<pid_t>& before) {
  for (pid_t tid : ThreadIds()) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      FanOutWorkers().push_back(tid);
      SetAffinity(tid, AllowedCpus());
    }
  }
}

/// Sets the CPU affinity of every thread of the process but the fan-out
/// workers. Threads started later inherit the mask of their starter.
void PinThreads(const std::vector<int>& cpus) {
  const std::vector<pid_t>& free = FanOutWorkers();
  for (pid_t tid : ThreadIds()) {
    if (std::find(free.begin(), free.end(), tid) == free.end()) {
      SetAffinity(tid, cpus);
    }
  }
}

/// Pins the process to round `round`'s CPU: the allowed CPUs in turn.
void PinRound(int round) {
  const std::vector<int>& all = AllowedCpus();
  if (all.empty()) return;
  PinThreads({all[static_cast<size_t>(round) % all.size()]});
}

void Unpin() { PinThreads(AllowedCpus()); }

/// Hands freed heap back to the kernel and restarts the peak-RSS gauge,
/// so the next VmHWM reading covers only what is allocated afterwards.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

bool SamePrediction(const Prediction& a, const Prediction& b) {
  return a.location.x == b.location.x && a.location.y == b.location.y &&
         a.score == b.score && a.source == b.source &&
         a.pattern_id == b.pattern_id &&
         a.consequence_region == b.consequence_region &&
         a.confidence == b.confidence && a.degraded == b.degraded;
}

bool SamePredictions(const std::vector<Prediction>& a,
                     const std::vector<Prediction>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SamePrediction(a[i], b[i])) return false;
  }
  return true;
}

bool SameFleetResult(const FleetQueryResult& a, const FleetQueryResult& b) {
  if (a.partial != b.partial || a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id ||
        !SamePrediction(a.hits[i].prediction, b.hits[i].prediction)) {
      return false;
    }
  }
  return true;
}

// ---- The seeded fleet ----------------------------------------------------

/// Every report of the seeded fleet for `periods` periods, in stream
/// order (round-robin over objects 1..kObjects), plus each object's
/// trajectory for ground truth.
struct Fleet {
  std::vector<StreamedReport> reports;
  std::vector<Trajectory> paths;  // index = id - 1

  const Trajectory& Path(ObjectId id) const {
    return paths[static_cast<size_t>(id - 1)];
  }
};

Fleet MakeFleet(uint64_t seed, int periods) {
  ReportStreamConfig config;
  config.num_objects = kObjects;
  config.period = kPeriod;
  config.pattern_probability = 0.9;
  config.noise_sigma = 2.0;
  config.drift_every_periods = 4;
  config.drift_fraction = 0.3;
  config.extent = kExtent;
  config.seed = seed;
  ReportStream stream(config);
  Fleet fleet;
  fleet.reports = stream.Take(static_cast<size_t>(kObjects) *
                              static_cast<size_t>(periods) *
                              static_cast<size_t>(kPeriod));
  fleet.paths.resize(kObjects);
  for (const StreamedReport& r : fleet.reports) {
    fleet.paths[static_cast<size_t>(r.object_id - 1)].Append(r.location);
  }
  return fleet;
}

// ---- Tracing (the per-layer run only) -----------------------------------

/// What the per-layer run keeps of one traced store call.
struct TracedCall {
  double root_us = 0.0;
  /// Sum of the root's stages (admit, plan, fanout, merge, train): the
  /// store time some layer accounts for.
  double children_us = 0.0;
  std::map<std::string, double> stage_us;
  double objects_evaluated = 0.0;
};

/// Keeps the store's traces while recording is on and summarises them
/// on demand; the sink only copies, so it adds little to the traced
/// call. Must outlive the store it is installed in.
class TraceLog {
 public:
  TraceSink Sink() {
    return [this](const char* op, const Trace& trace) { Record(op, trace); };
  }

  void SetRecording(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = on;
  }

  /// The recorded calls of `op`, in completion order.
  std::vector<TracedCall> Calls(const std::string& op) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TracedCall> out;
    for (const Raw& raw : traces_) {
      if (raw.op == op) out.push_back(Summarise(raw));
    }
    return out;
  }

 private:
  struct Raw {
    std::string op;
    std::vector<TraceSpan> spans;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };

  void Record(const char* op, const Trace& trace) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!recording_) return;
    }
    Raw raw{op, trace.spans(), trace.counters()};
    std::lock_guard<std::mutex> lock(mu_);
    traces_.push_back(std::move(raw));
  }

  static TracedCall Summarise(const Raw& raw) {
    TracedCall call;
    int root = -1;
    for (size_t i = 0; i < raw.spans.size(); ++i) {
      if (raw.spans[i].parent < 0 && raw.spans[i].name == raw.op) {
        root = static_cast<int>(i);
        call.root_us = static_cast<double>(raw.spans[i].duration_micros);
        break;
      }
    }
    // Stages are the root's children; the store opens "train" as a root
    // span of its own inside the report's root.
    for (size_t i = 0; i < raw.spans.size(); ++i) {
      const TraceSpan& span = raw.spans[i];
      if (root >= 0 && static_cast<int>(i) != root &&
          (span.parent == root || span.parent < 0)) {
        call.children_us += static_cast<double>(span.duration_micros);
        call.stage_us[span.name] += static_cast<double>(span.duration_micros);
      }
    }
    for (const auto& [name, value] : raw.counters) {
      if (name == "objects_evaluated") {
        call.objects_evaluated = static_cast<double>(value);
      }
    }
    return call;
  }

  mutable std::mutex mu_;
  bool recording_ = false;
  std::vector<Raw> traces_;
};

// ---- The served store ----------------------------------------------------

ObjectStoreOptions StoreOptions(const std::string& wal_dir, TraceSink sink) {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 15.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.distant_threshold = kDistantThreshold;
  options.predictor.region_match_slack = 8.0;
  options.recent_window = kRecentWindow;
  options.query_threads = kQueryThreads;
  if (!wal_dir.empty()) {
    options.durability.wal_dir = wal_dir;
    options.durability.sync_policy = WalSyncPolicy::kInterval;
  }
  options.trace_sink = std::move(sink);
  return options;
}

/// A store behind a loopback server with one connected client.
/// Members are destroyed client first, store last.
struct Served {
  std::unique_ptr<MovingObjectStore> store;
  std::unique_ptr<HpmServer> server;
  std::unique_ptr<HpmClient> client;
};

std::unique_ptr<HpmClient> Connect(const HpmServer& server) {
  HpmClientOptions options;
  options.port = server.port();
  return std::make_unique<HpmClient>(options);
}

Served Serve(std::unique_ptr<MovingObjectStore> store) {
  Served served;
  served.store = std::move(store);
  HpmServerOptions options;
  options.handler_threads = kHandlerThreads;
  StatusOr<std::unique_ptr<HpmServer>> server =
      HpmServer::Start(served.store.get(), options);
  if (!server.ok()) Die("server: " + server.status().ToString());
  served.server = std::move(*server);
  served.client = Connect(*served.server);
  return served;
}

// ---- Query generators ----------------------------------------------------

struct PointQuery {
  ObjectId id = 0;
  Timestamp tq = 0;
};

/// Uniform object. Horizons cycle, so every run of n queries covers the
/// same mix: even queries step through the horizons below the distant
/// threshold (forward query processing), odd ones through those at or
/// above it (backward). With `object_now` (indexed by id: the object's
/// latest tick), the horizon counts from the object's own clock, and an
/// object with fewer than three reports is drawn again.
PointQuery NextPointQuery(Random& rng, uint64_t i, Timestamp now,
                          const std::vector<Timestamp>& object_now) {
  constexpr uint64_t kForward = kDistantThreshold - 1;
  constexpr uint64_t kBackward = kMaxHorizon - kDistantThreshold + 1;
  PointQuery q;
  q.id = static_cast<ObjectId>(1 + rng.Uniform(kObjects));
  if (!object_now.empty()) {
    while (object_now[static_cast<size_t>(q.id)] < 2) {
      q.id = static_cast<ObjectId>(1 + rng.Uniform(kObjects));
    }
    now = object_now[static_cast<size_t>(q.id)];
  }
  q.tq = now + static_cast<Timestamp>(
                   i % 2 == 0 ? 1 + (i / 2) % kForward
                              : kDistantThreshold + (i / 2) % kBackward);
  return q;
}

struct FleetQuery {
  bool knn = false;
  Point at;  ///< Range: the box's min corner. kNN: the target.
  Timestamp tq = 0;
};

/// Alternates a fixed-size predictive range box and a kNN (n = kKnnN) at a
/// uniform position; each kind cycles through every horizon.
FleetQuery NextFleetQuery(Random& rng, uint64_t i, Timestamp now) {
  FleetQuery q;
  q.knn = i % 2 == 1;
  const double span = q.knn ? kExtent : kExtent - kRangeSide;
  q.at = Point(rng.UniformDouble(0.0, span), rng.UniformDouble(0.0, span));
  q.tq = now + 1 + static_cast<Timestamp>((i / 2) % kMaxHorizon);
  return q;
}

StatusOr<FleetReply> SendFleetQuery(HpmClient& client, const FleetQuery& q) {
  if (q.knn) {
    KnnRequest request;
    request.x = q.at.x;
    request.y = q.at.y;
    request.tq = q.tq;
    request.n = kKnnN;
    return client.Knn(request);
  }
  RangeRequest request;
  request.min_x = q.at.x;
  request.min_y = q.at.y;
  request.max_x = q.at.x + kRangeSide;
  request.max_y = q.at.y + kRangeSide;
  request.tq = q.tq;
  return client.Range(request);
}

StatusOr<FleetQueryResult> LocalFleetQuery(const MovingObjectStore& store,
                                           const FleetQuery& q) {
  if (q.knn) return store.PredictiveNearestNeighbors(q.at, q.tq, kKnnN);
  return store.PredictiveRangeQuery(
      BoundingBox(q.at, Point(q.at.x + kRangeSide, q.at.y + kRangeSide)),
      q.tq);
}

// ---- Run bookkeeping -----------------------------------------------------

/// Operations sent over the wire, and those that failed or were refused.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> mismatches;

  void Mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 10) mismatches.push_back(what);
  }
};

/// Latencies of one op kind. Each stream slice (one Run or
/// RunReportStream call, i.e. one round) starts a round of samples.
struct Sample {
  std::vector<double> us;
  /// Index in `us` of each round's first sample.
  std::vector<size_t> rounds;
  double elapsed_s = 0.0;

  void StartRound() { rounds.push_back(us.size()); }
};

/// The mean over rounds of each round's median. On one CPU, loopback
/// latency flips between two levels from one moment to the next (on the
/// reference host a bare TCP ping-pong read 9 or 15 us per window of 5000
/// round trips, whatever the program). A pooled median jumps from one
/// level to the other as the share of fast rounds crosses one half; this
/// mean moves in proportion to it.
double RoundMeanMedian(const Sample& sample) {
  double sum = 0.0;
  int n = 0;
  for (size_t k = 0; k < sample.rounds.size(); ++k) {
    const size_t end =
        k + 1 < sample.rounds.size() ? sample.rounds[k + 1] : sample.us.size();
    if (end == sample.rounds[k]) continue;
    sum += Quantile(std::vector<double>(
                        sample.us.begin() +
                            static_cast<ptrdiff_t>(sample.rounds[k]),
                        sample.us.begin() + static_cast<ptrdiff_t>(end)),
                    0.5);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

// ---- Query streams -------------------------------------------------------

/// How long a stream slice runs: `seconds`, or `count` operations when
/// count > 0.
struct Budget {
  double seconds = 0.0;
  uint64_t count = 0;

  bool Allows(Clock::time_point start, uint64_t done) const {
    return count > 0 ? done < count : SecondsSince(start) < seconds;
  }
};

/// A closed loop of point predicts from one client. Successive Run calls
/// continue one seeded query sequence, so a stream can be measured in
/// slices spread over the run.
struct PointStream {
  PointStream() = default;
  PointStream(uint64_t seed, Timestamp served_now)
      : rng(seed), now(served_now) {}

  void Run(HpmClient& client, Budget budget, Tally* tally) {
    latency.StartRound();
    const Clock::time_point start = Clock::now();
    for (uint64_t done = 0; budget.Allows(start, done); ++done, ++next) {
      const PointQuery q = NextPointQuery(rng, next, now, object_now);
      PredictRequest request;
      request.id = q.id;
      request.tq = q.tq;
      const Clock::time_point sent = Clock::now();
      StatusOr<PredictReply> reply = client.Predict(request);
      const double us = MicrosSince(sent);
      ++tally->attempted;
      if (!reply.ok()) {
        ++tally->failed;
        continue;
      }
      latency.us.push_back(us);
      if (oracle_sample.size() < kPointOracleSample) {
        oracle_sample.emplace_back(q, std::move(reply->predictions));
      }
    }
    latency.elapsed_s += SecondsSince(start);
  }

  Random rng{0};
  Timestamp now = 0;
  /// When set, each object's own latest tick (ingest's moving store).
  std::vector<Timestamp> object_now;
  uint64_t next = 0;
  Sample latency;
  /// The first answers, checked against the store after the timed phase.
  std::vector<std::pair<PointQuery, std::vector<Prediction>>> oracle_sample;
};

void CheckPointSample(const MovingObjectStore& store,
                      const PointStream& stream, Tally* tally) {
  for (const auto& [q, wire] : stream.oracle_sample) {
    StatusOr<std::vector<Prediction>> local = store.PredictLocation(q.id, q.tq);
    if (!local.ok() || !SamePredictions(*local, wire)) {
      tally->Mismatch("point answer differs for object " +
                      std::to_string(q.id));
    }
  }
}

/// A closed loop of alternating range and kNN queries from one client,
/// resumable like PointStream. Every reply is kept for the checks.
struct FleetStream {
  FleetStream() = default;
  FleetStream(uint64_t seed, Timestamp served_now)
      : rng(seed), now(served_now) {}

  void Run(HpmClient& client, Budget budget, Tally* tally) {
    const Clock::time_point start = Clock::now();
    for (uint64_t done = 0; budget.Allows(start, done); ++done, ++next) {
      const FleetQuery q = NextFleetQuery(rng, next, now);
      const Clock::time_point sent = Clock::now();
      StatusOr<FleetReply> reply = SendFleetQuery(client, q);
      const double us = MicrosSince(sent);
      ++tally->attempted;
      if (!reply.ok() || reply->result.partial) {
        ++tally->failed;
        continue;
      }
      (q.knn ? knn : range).us.push_back(us);
      replies.emplace_back(q, std::move(reply->result));
    }
    range.elapsed_s += SecondsSince(start);
    knn.elapsed_s = range.elapsed_s;
  }

  Random rng{0};
  Timestamp now = 0;
  uint64_t next = 0;
  Sample range;
  Sample knn;
  std::vector<std::pair<FleetQuery, FleetQueryResult>> replies;
};

void CheckFleetReplies(const MovingObjectStore& store,
                       const FleetStream& stream, Tally* tally) {
  for (const auto& [q, wire] : stream.replies) {
    StatusOr<FleetQueryResult> local = LocalFleetQuery(store, q);
    if (!local.ok() || !SameFleetResult(*local, wire)) {
      tally->Mismatch(std::string(q.knn ? "knn" : "range") +
                      " reply differs at tq " + std::to_string(q.tq));
    }
  }
}

/// Sends one report at its explicit object-clock tick; returns its
/// latency in microseconds.
double SendReport(HpmClient& client, const StreamedReport& r, Tally* tally) {
  ReportRequest request;
  request.id = r.object_id;
  request.t = r.time;
  request.x = r.location.x;
  request.y = r.location.y;
  const Clock::time_point sent = Clock::now();
  const StatusOr<ReplyInfo> reply = client.Report(request);
  const double us = MicrosSince(sent);
  ++tally->attempted;
  if (!reply.ok()) ++tally->failed;
  return us;
}

/// Closed loop: one client sends `reports` in order; latencies are
/// appended to `out`.
void RunReportStream(HpmClient& client,
                     const std::vector<StreamedReport>& reports, Sample* out,
                     Tally* tally) {
  out->StartRound();
  const Clock::time_point start = Clock::now();
  for (const StreamedReport& r : reports) {
    out->us.push_back(SendReport(client, r, tally));
  }
  out->elapsed_s += SecondsSince(start);
}

// ---- ingest: closed-loop writer + open-loop reader ----------------------

struct IngestStream {
  Sample reports;
  Sample reader;  ///< Timed from each predict's due time.
  /// The same predicts timed from their send (per-layer net self time).
  std::vector<double> reader_send_us;
  uint64_t reader_sent = 0;
  uint64_t reader_ok = 0;
  uint64_t reader_failed = 0;
  double late_ms = 0.0;  ///< Mean send lateness of the reader's schedule.
  /// Per-layer run only: model swaps seen after reports, and the
  /// latencies of the reports that caused them.
  uint64_t swaps = 0;
  std::vector<double> swap_report_us;
};

IngestStream RunIngestStream(Served& served,
                             const std::vector<StreamedReport>& replay,
                             uint64_t seed, bool track_swaps, Tally* tally) {
  IngestStream out;
  std::atomic<uint64_t> acked{0};
  /// Acknowledged reports per object (index = id).
  std::vector<std::atomic<Timestamp>> lengths(kObjects + 1);
  for (std::atomic<Timestamp>& length : lengths) length.store(0);
  std::atomic<bool> done{false};
  std::unique_ptr<HpmClient> reader_client = Connect(*served.server);

  // The reader starts once every object has three reports (a predict
  // needs two), then sends at a fixed rate whatever the store does.
  std::thread reader([&] {
    while (!done.load() && acked.load() < 3u * kObjects) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Random rng(seed ^ 0x7265616465ull);
    const Clock::time_point start = Clock::now();
    double late_sum_ms = 0.0;
    for (uint64_t i = 0; !done.load(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) / kReaderRatePerSecond));
      std::this_thread::sleep_until(due);
      if (done.load()) break;
      late_sum_ms += std::chrono::duration<double, std::milli>(Clock::now() -
                                                              due)
                         .count();
      // An object with three acknowledged reports; counting the horizon
      // from its report count keeps tq ahead of a report in flight.
      ObjectId id = 0;
      Timestamp length = 0;
      while (length < 3) {
        id = static_cast<ObjectId>(1 + rng.Uniform(kObjects));
        length = lengths[static_cast<size_t>(id)].load();
      }
      const Timestamp h = (i % 2 == 0)
                              ? rng.UniformInt(1, kDistantThreshold - 1)
                              : rng.UniformInt(kDistantThreshold, kMaxHorizon);
      PredictRequest request;
      request.id = id;
      request.tq = length + h;
      ++out.reader_sent;
      const Clock::time_point sent = Clock::now();
      const StatusOr<PredictReply> reply = reader_client->Predict(request);
      if (reply.ok()) {
        ++out.reader_ok;
        out.reader_send_us.push_back(MicrosSince(sent));
        out.reader.us.push_back(MicrosSince(due));
      } else {
        ++out.reader_failed;
      }
    }
    out.late_ms = Ratio(late_sum_ms, static_cast<double>(out.reader_sent));
    out.reader.elapsed_s = SecondsSince(start);
  });

  // Stops and joins the reader on every exit from this scope.
  struct ReaderJoin {
    std::atomic<bool>& done;
    std::thread& thread;
    void Join() {
      done.store(true);
      if (thread.joinable()) thread.join();
    }
    ~ReaderJoin() { Join(); }
  } reader_join{done, reader};

  std::vector<const HybridPredictor*> models(kObjects + 1, nullptr);
  out.reports.us.reserve(replay.size());
  // The writer, the reader and their handlers share one CPU per round.
  const size_t per_round = (replay.size() + kRounds - 1) / kRounds;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < replay.size(); ++i) {
    if (i % per_round == 0) PinRound(static_cast<int>(i / per_round));
    const StreamedReport& r = replay[i];
    const double us = SendReport(*served.client, r, tally);
    out.reports.us.push_back(us);
    lengths[static_cast<size_t>(r.object_id)].store(r.time + 1);
    acked.store(i + 1);
    if (track_swaps) {
      StatusOr<std::shared_ptr<const HybridPredictor>> model =
          served.store->GetPredictor(r.object_id);
      const HybridPredictor* now = model.ok() ? model->get() : nullptr;
      if (now != models[static_cast<size_t>(r.object_id)]) {
        models[static_cast<size_t>(r.object_id)] = now;
        ++out.swaps;
        out.swap_report_us.push_back(us);
      }
    }
  }
  out.reports.elapsed_s = SecondsSince(start);
  reader_join.Join();
  tally->attempted += out.reader_sent;
  tally->failed += out.reader_failed;
  return out;
}

// ---- Checks and deterministic quality ------------------------------------

struct Quality {
  double predict_err = 0.0;
  double pattern_share = 0.0;
};

/// The evaluation set: every object at every horizon, answered in-process
/// and scored against the held-back true location. Every
/// kWireCheckStride-th query is also sent over the wire and must match.
Quality EvaluatePredictions(Served& served, const Fleet& fleet,
                            Timestamp now, Tally* tally) {
  double err = 0.0;
  uint64_t patterns = 0;
  uint64_t answered = 0;
  uint64_t i = 0;
  for (ObjectId id = 1; id <= kObjects; ++id) {
    for (Timestamp h = 1; h <= kMaxHorizon; ++h, ++i) {
      const Timestamp tq = now + h;
      const StatusOr<std::vector<Prediction>> local =
          served.store->PredictLocation(id, tq);
      if (!local.ok() || local->empty()) {
        tally->Mismatch("in-process predict failed for object " +
                        std::to_string(id));
        continue;
      }
      if (i % kWireCheckStride == 0) {
        PredictRequest request;
        request.id = id;
        request.tq = tq;
        const StatusOr<PredictReply> wire = served.client->Predict(request);
        ++tally->attempted;
        if (!wire.ok()) {
          ++tally->failed;
        } else if (!SamePredictions(*local, wire->predictions)) {
          tally->Mismatch("wire answer differs for object " +
                          std::to_string(id));
        }
      }
      const Prediction& top = local->front();
      const Point truth = fleet.Path(id).At(tq);
      err += std::hypot(top.location.x - truth.x, top.location.y - truth.y);
      patterns += top.source == PredictionSource::kPattern;
      ++answered;
    }
  }
  Quality quality;
  quality.predict_err = Ratio(err, static_cast<double>(answered));
  quality.pattern_share =
      Ratio(static_cast<double>(patterns), static_cast<double>(answered));
  return quality;
}

/// Every object tracked with exactly `length` samples.
void CheckHistories(const MovingObjectStore& store, size_t length,
                    Tally* tally) {
  if (store.NumObjects() != static_cast<size_t>(kObjects)) {
    tally->Mismatch("store tracks " + std::to_string(store.NumObjects()) +
                    " objects");
    return;
  }
  for (ObjectId id = 1; id <= kObjects; ++id) {
    if (store.HistoryLength(id) != length) {
      tally->Mismatch("object " + std::to_string(id) + " has " +
                      std::to_string(store.HistoryLength(id)) + " samples");
      return;
    }
  }
}

// ---- Setup ---------------------------------------------------------------

/// Everything a workload's timed phase needs. The fleet is generated
/// before the RSS baseline, so generator buffers do not count.
struct Bench {
  Fleet fleet;
  /// ingest: the reports it replays, in IngestReplay order.
  std::vector<StreamedReport> replay;
  Served served;
  std::string wal_dir;
  long rss_base_kb = 0;
};

std::vector<StreamedReport> Periods(const std::vector<StreamedReport>& all,
                                    int from_period, int to_period) {
  const size_t per = static_cast<size_t>(kObjects) * kPeriod;
  return std::vector<StreamedReport>(
      all.begin() + static_cast<ptrdiff_t>(per * from_period),
      all.begin() + static_cast<ptrdiff_t>(per * to_period));
}

/// Slice `slice` of the report probe: every report of the held-back
/// periods for one kRounds-th of the objects, object by object, so each
/// slice carries its objects' additive model updates.
std::vector<StreamedReport> ReportProbeSlice(const Fleet& fleet, int slice) {
  std::vector<StreamedReport> out;
  for (ObjectId id = 1 + slice * kObjects / kRounds;
       id <= (slice + 1) * kObjects / kRounds; ++id) {
    for (Timestamp t = kServedPeriods * kPeriod;
         t < (kServedPeriods + kReportProbePeriods) * kPeriod; ++t) {
      StreamedReport r;
      r.object_id = id;
      r.time = t;
      r.location = fleet.Path(id).At(t);
      out.push_back(r);
    }
  }
  return out;
}

/// ingest's replay: the first kIngestPeriods periods of the fleet, with
/// object id's clock offset by (id - 1) % kIngestStagger ticks. At each
/// step every object whose clock has started sends its next report, in id
/// order. Trainings (period 5) and updates (period 7) therefore spread
/// over kIngestStagger ticks instead of one: they take turns with plain
/// reports over much of the run rather than in two short bursts, which a
/// slow second of the host could otherwise set alone.
std::vector<StreamedReport> IngestReplay(const Fleet& fleet) {
  const Timestamp ticks = static_cast<Timestamp>(kIngestPeriods) * kPeriod;
  std::vector<StreamedReport> out;
  out.reserve(static_cast<size_t>(kObjects) * static_cast<size_t>(ticks));
  for (Timestamp step = 0; step < ticks + kIngestStagger; ++step) {
    for (ObjectId id = 1; id <= kObjects; ++id) {
      const Timestamp t = step - (id - 1) % kIngestStagger;
      if (t >= 0 && t < ticks) {
        // Read from the object's own path: a step touches each path at
        // the next point, so the reads stay in cache.
        StreamedReport r;
        r.object_id = id;
        r.time = t;
        r.location = fleet.Path(id).At(t);
        out.push_back(r);
      }
    }
  }
  return out;
}

int FleetPeriods(Workload w) {
  // The held-back periods past the history: the first is the ground
  // truth; fleet-scan feeds them as the report probe.
  return w == Workload::kIngest ? kIngestPeriods + 1
                                : kServedPeriods + kReportProbePeriods;
}

std::unique_ptr<Bench> SetUp(const Args& args, int index, TraceSink sink) {
  auto bench = std::make_unique<Bench>();
  bench->fleet = MakeFleet(args.seed, FleetPeriods(args.workload));
  if (args.workload == Workload::kIngest) {
    bench->replay = IngestReplay(bench->fleet);
    bench->wal_dir = args.work_dir + "/wal-" + std::to_string(index);
    std::filesystem::remove_all(bench->wal_dir);
    std::filesystem::create_directories(bench->wal_dir);
  }
  ResetPeakRss();
  bench->rss_base_kb = ProcStatusKb("VmRSS:");
  const std::vector<pid_t> before = ThreadIds();
  auto store = std::make_unique<MovingObjectStore>(
      StoreOptions(bench->wal_dir, std::move(sink)));
  FreeFanOutWorkers(before);
  if (args.workload != Workload::kIngest) {
    for (const StreamedReport& r :
         Periods(bench->fleet.reports, 0, kServedPeriods)) {
      const Status status = store->ReportLocationAt(
          static_cast<ObjectId>(r.object_id), r.time, r.location);
      if (!status.ok()) Die("populate: " + status.ToString());
    }
  }
  bench->served = Serve(std::move(store));
  return bench;
}

void TearDown(std::unique_ptr<Bench> bench) {
  const std::string wal_dir = bench->wal_dir;
  bench.reset();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);
}

Timestamp ServedNow(Workload w) {
  return static_cast<Timestamp>(
             (w == Workload::kIngest ? kIngestPeriods : kServedPeriods) *
             kPeriod) -
         1;
}

size_t IngestCount() {
  return static_cast<size_t>(kObjects) * kIngestPeriods * kPeriod;
}

// ---- Output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample count or source, printed in the table.
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void PrintFingerprint(const Args& args) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const bool ingest = args.workload == Workload::kIngest;
  // Only the per-layer run drives ingest's open-loop reader.
  const bool reader = ingest && args.trace;
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"objects\": %d, "
      "\"period\": %lld, \"history_periods\": %d, \"sync_policy\": \"%s\", "
      "\"query_threads\": %d, \"handler_threads\": %d, "
      "\"client_streams\": %d, \"reader_rate_per_s\": %g, "
      "\"rounds\": %d, \"pinned_cpus\": %zu}}\n",
      args.workload_name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc, JsonEscape(__VERSION__).c_str(),
      JsonEscape(HPM_BENCH_FLAGS).c_str(), kObjects,
      static_cast<long long>(kPeriod),
      ingest ? kIngestPeriods : kServedPeriods,
      ingest ? "interval" : "no journal", kQueryThreads, kHandlerThreads,
      reader ? 2 : 1, reader ? kReaderRatePerSecond : 0.0, kRounds,
      AllowedCpus().size());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("#   %-26s %16.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

int Finish(const Tally& tally, const std::vector<Metric>& metrics) {
  if (!tally.correct || tally.failed > 0 || tally.attempted == 0) {
    std::fprintf(stderr,
                 "hpm_bench: check failed: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(tally.failed),
                 static_cast<unsigned long long>(tally.attempted));
    for (const std::string& m : tally.mismatches) {
      std::fprintf(stderr, "hpm_bench: mismatch: %s\n", m.c_str());
    }
    return 1;
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(tally.attempted) + ", \"failed\": " +
                     std::to_string(tally.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

std::string Count(size_t n) { return "n=" + std::to_string(n); }

// ---- The workload's main stream ------------------------------------------

/// Restores the fleet stream's send order (range, kNN, range, ...) from
/// its per-kind lists.
template <typename T>
std::vector<T> Interleave(const std::vector<T>& ranges,
                          const std::vector<T>& knns) {
  std::vector<T> out;
  for (size_t i = 0; i < ranges.size() || i < knns.size(); ++i) {
    if (i < ranges.size()) out.push_back(ranges[i]);
    if (i < knns.size()) out.push_back(knns[i]);
  }
  return out;
}

/// The timed phase: the workload's main stream and, in end-to-end runs,
/// the probes for the op kinds outside it.
struct MainResult {
  /// Client latency of the main op (reports, predicts, range + kNN), in
  /// send order, which is the order the trace log records them in.
  std::vector<double> main_us;
  /// Point predicts sent by the main stream (ingest: the reader's), timed
  /// from their send.
  std::vector<double> predict_us;
  uint64_t ops = 0;
  uint64_t predicting_ops = 0;
  IngestStream ingest;
  /// The point-predict probe.
  PointStream point;
  /// fleet-scan's main stream, or ingest's range/kNN probe.
  FleetStream fleet;
  /// fleet-scan: the report probe.
  Sample report;
};

/// An empty timed-phase result with the workload's query streams seeded.
MainResult NewMainResult(const Args& args) {
  MainResult out;
  const Timestamp now = ServedNow(args.workload);
  out.point = PointStream(args.seed ^ 0x706f696e74ull, now);
  out.fleet = FleetStream(args.seed ^ 0x666c656574ull, now);
  return out;
}

/// Runs the main stream for `seconds` (ingest: the whole stream) in
/// kRounds rounds, adding its samples to `out`. With `probes`, each round also runs its share of the
/// probes, after its slice of the main stream and never beside it, so
/// slow host drift lands on every metric alike. Point predicts and
/// reports run pinned to the round's CPU, range and kNN queries unpinned
/// (see PinRound). The report probe writes, so it goes to `report_store`,
/// a second store set up like `bench`'s (required with probes outside
/// ingest). ingest's point probe reads the store as the stream has left
/// it, and its range/kNN probe follows the stream. Without `probes`,
/// ingest runs its open-loop reader beside the stream. With
/// `track_swaps`, counts model swaps after reports. Returns with the
/// process unpinned.
void RunMain(const Args& args, Bench& bench, double seconds, bool probes,
             Bench* report_store, bool track_swaps, MainResult* result,
             Tally* tally) {
  MainResult& out = *result;
  HpmClient& client = *bench.served.client;
  const Budget point_probe{0.0, kProbePredicts / kRounds};
  switch (args.workload) {
    case Workload::kIngest:
      if (!probes) {
        out.ingest = RunIngestStream(bench.served, bench.replay, args.seed,
                                     track_swaps, tally);
        out.main_us = out.ingest.reports.us;
        out.predict_us = out.ingest.reader_send_us;
        out.ops = out.main_us.size() + out.ingest.reader_sent;
        out.predicting_ops = out.ingest.reader_ok;
        break;
      }
      // The point probe counts each horizon from the object's latest tick.
      out.point.object_now.assign(kObjects + 1, -1);
      for (int i = 0; i < kRounds; ++i) {
        PinRound(i);
        const size_t per = bench.replay.size() / kRounds;
        const std::vector<StreamedReport> slice(
            bench.replay.begin() + static_cast<ptrdiff_t>(per * i),
            i + 1 == kRounds
                ? bench.replay.end()
                : bench.replay.begin() + static_cast<ptrdiff_t>(per * (i + 1)));
        RunReportStream(client, slice, &out.ingest.reports, tally);
        for (const StreamedReport& r : slice) {
          out.point.object_now[static_cast<size_t>(r.object_id)] = r.time;
        }
        // The oracle checks the final store, so keep the last round's
        // answers.
        if (i + 1 == kRounds) out.point.oracle_sample.clear();
        out.point.Run(client, point_probe, tally);
      }
      Unpin();
      out.fleet.Run(client, {0.0, 2 * kProbeFleetQueries / kIngestPasses},
                    tally);
      out.main_us = out.ingest.reports.us;
      out.ops = out.main_us.size();
      break;
    case Workload::kFleetScan:
      for (int i = 0; i < kRounds; ++i) {
        Unpin();
        out.fleet.Run(client, {seconds / kRounds, 0}, tally);
        if (probes) {
          PinRound(i);
          out.point.Run(client, point_probe, tally);
          RunReportStream(*report_store->served.client,
                          ReportProbeSlice(bench.fleet, i), &out.report,
                          tally);
        }
      }
      out.main_us = Interleave(out.fleet.range.us, out.fleet.knn.us);
      out.ops = out.predicting_ops = out.main_us.size();
      break;
  }
  Unpin();
}

/// The timed phase's oracle checks; they call the store in-process, so
/// run them after reading the phase's counters.
void CheckMain(const MovingObjectStore& store, const MainResult& main,
               Tally* tally) {
  CheckPointSample(store, main.point, tally);
  CheckFleetReplies(store, main.fleet, tally);
}

// ---- End-to-end run (--trace 0) ------------------------------------------

/// "main stream" when the metric's op is the workload's own, else "probe".
std::string SourceNote(Workload workload, Workload owner) {
  return workload == owner ? "main stream" : "probe";
}

int RunEndToEnd(const Args& args, Clock::time_point process_start) {
  // Set up several times and keep the last; setup_s is the median. Like
  // the rounds of the timed phase, successive setups run on successive
  // CPUs.
  // Outside ingest, the first setup is kept as the report probe's store;
  // it exists before the last setup's RSS baseline, so rss_mb excludes it.
  const bool ingest = args.workload == Workload::kIngest;
  const int repeats = ingest ? kIngestSetupRepeats : kSetupRepeats;
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench, probe_store;
  Clock::time_point setup_start = process_start;
  for (int i = 0; i < repeats; ++i) {
    if (bench != nullptr) {
      if (!ingest && probe_store == nullptr) {
        probe_store = std::move(bench);
      } else {
        TearDown(std::move(bench));
      }
    }
    if (i > 0) setup_start = Clock::now();
    PinRound(i);
    bench = SetUp(args, i, nullptr);
    setup_s.push_back(SecondsSince(setup_start));
  }
  Unpin();

  Tally tally;
  const Timestamp now = ServedNow(args.workload);
  // The peak covers the store's build: the first replay for ingest, setup
  // elsewhere. Outside ingest it is read before the timed phase, whose
  // report probe grows the second store, not the measured one.
  auto rss_mb = [&] {
    return static_cast<double>(ProcStatusKb("VmHWM:") - bench->rss_base_kb) /
           1024.0;
  };
  double peak_rss_mb = rss_mb();
  Phase("setup done");
  MainResult main = NewMainResult(args);
  if (ingest) {
    // The replay runs kIngestPasses times, each into a fresh store set up
    // like the first, so one run covers several replays' worth of host
    // time. Each pass is checked before its store is torn down.
    for (int pass = 0; pass < kIngestPasses; ++pass) {
      if (pass > 0) {
        TearDown(std::move(bench));
        bench = SetUp(args, repeats + pass, nullptr);
      }
      RunMain(args, *bench, args.seconds, /*probes=*/true, nullptr,
              /*track_swaps=*/false, &main, &tally);
      if (pass == 0) peak_rss_mb = rss_mb();
      const MovingObjectStore& store = *bench->served.store;
      CheckMain(store, main, &tally);
      main.point.oracle_sample.clear();
      main.fleet.replies.clear();
      CheckHistories(store, IngestCount() / kObjects, &tally);
      const uint64_t appended =
          store.metrics_snapshot().counter("wal.appended");
      if (appended != IngestCount()) {
        tally.Mismatch("journal holds " + std::to_string(appended) +
                       " records");
      }
      Phase("replay pass checked");
    }
  } else {
    RunMain(args, *bench, args.seconds, /*probes=*/true, probe_store.get(),
            /*track_swaps=*/false, &main, &tally);
    Phase("timed phase done");
    CheckMain(*bench->served.store, main, &tally);
    Phase("checks done");
  }

  const Sample& report = ingest ? main.ingest.reports : main.report;
  const Sample& predict = main.point.latency;
  const Quality quality =
      EvaluatePredictions(bench->served, bench->fleet, now, &tally);
  Phase("evaluation done");
  if (probe_store != nullptr) {
    CheckHistories(*probe_store->served.store,
                   static_cast<size_t>(kServedPeriods + kReportProbePeriods) *
                       kPeriod,
                   &tally);
    TearDown(std::move(probe_store));
  }

  const double ok_share =
      Ratio(static_cast<double>(tally.attempted - tally.failed),
            static_cast<double>(tally.attempted));
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s",
       "median of " + std::to_string(repeats) + " setups"},
      {"rss_mb", peak_rss_mb, "MB",
       ingest ? "peak over the replay" : "peak over setup"},
      {"ingest_ops_s",
       Ratio(static_cast<double>(report.us.size()), report.elapsed_s), "1/s",
       SourceNote(args.workload, Workload::kIngest)},
      {"report_p50_us", RoundMeanMedian(report), "us",
       Count(report.us.size()) + ", mean of round medians"},
      {"report_p99_us", Quantile(report.us, 0.99), "us",
       SourceNote(args.workload, Workload::kIngest)},
      {"predict_p50_us", RoundMeanMedian(predict), "us",
       Count(predict.us.size()) + ", mean of round medians"},
      {"predict_p90_us", Quantile(predict.us, 0.90), "us",
       "probe"},
      {"range_p50_us", Quantile(main.fleet.range.us, 0.50), "us",
       Count(main.fleet.range.us.size())},
      {"range_p90_us", Quantile(main.fleet.range.us, 0.90), "us",
       SourceNote(args.workload, Workload::kFleetScan)},
      {"knn_p50_us", Quantile(main.fleet.knn.us, 0.50), "us",
       Count(main.fleet.knn.us.size())},
      {"knn_p90_us", Quantile(main.fleet.knn.us, 0.90), "us",
       SourceNote(args.workload, Workload::kFleetScan)},
      {"predict_err", quality.predict_err, "units",
       Count(kEvalQueries) + " objects x horizons"},
      {"pattern_share", quality.pattern_share, "share",
       Count(kEvalQueries) + " objects x horizons"},
      {"ok_share", ok_share, "share", Count(tally.attempted) + " operations"},
  };
  PrintTable("end-to-end", metrics);
  TearDown(std::move(bench));
  Phase("teardown done");
  return Finish(tally, metrics);
}

// ---- Per-layer run (--trace 1) -------------------------------------------

/// Median client-minus-root-span time over the k-th client call paired
/// with the k-th traced call of the same op.
double SelfMicros(const std::vector<double>& client_us,
                  const std::vector<TracedCall>& calls) {
  std::vector<double> self;
  for (size_t i = 0; i < client_us.size() && i < calls.size(); ++i) {
    self.push_back(client_us[i] - calls[i].root_us);
  }
  return Quantile(self, 0.5);
}

uint64_t Delta(const MetricsSnapshot& after, const MetricsSnapshot& before,
               const std::string& name) {
  return after.counter(name) - before.counter(name);
}

int RunPerLayer(const Args& args) {
  Tally tally;
  const double half = args.seconds / 2.0;

  // Untraced pass: the reference for tracing overhead and epoch counts.
  std::unique_ptr<Bench> plain = SetUp(args, 0, nullptr);
  const MetricsSnapshot plain_before = plain->served.store->metrics_snapshot();
  MainResult plain_main = NewMainResult(args);
  RunMain(args, *plain, half, false, nullptr, /*track_swaps=*/false,
          &plain_main, &tally);
  const MetricsSnapshot plain_after = plain->served.store->metrics_snapshot();
  CheckMain(*plain->served.store, plain_main, &tally);
  TearDown(std::move(plain));
  Phase("untraced pass done");

  // Traced pass.
  TraceLog log;
  std::unique_ptr<Bench> bench = SetUp(args, 1, log.Sink());
  MovingObjectStore& store = *bench->served.store;
  const MetricsSnapshot before = store.metrics_snapshot();
  log.SetRecording(true);
  MainResult main = NewMainResult(args);
  RunMain(args, *bench, half, false, nullptr, /*track_swaps=*/true, &main,
          &tally);
  log.SetRecording(false);
  const MetricsSnapshot after = store.metrics_snapshot();
  CheckMain(store, main, &tally);
  Phase("traced pass done");

  // Store-side effort per predict, over the fixed evaluation set.
  const Timestamp now = ServedNow(args.workload);
  const MetricsSnapshot eval_before = store.metrics_snapshot();
  EvaluatePredictions(bench->served, bench->fleet, now, &tally);
  const MetricsSnapshot eval_after = store.metrics_snapshot();

  // net: the bare round trip, pinned like a timed round.
  std::vector<double> ping_us;
  for (int i = 0; i < kPings; ++i) {
    if (i % (kPings / kRounds) == 0) PinRound(i / (kPings / kRounds));
    const Clock::time_point sent = Clock::now();
    const StatusOr<ReplyInfo> reply = bench->served.client->Ping();
    ping_us.push_back(MicrosSince(sent));
    ++tally.attempted;
    if (!reply.ok()) ++tally.failed;
  }
  Unpin();

  // io: direct journal appends under the ingest sync policy.
  std::vector<double> wal_us;
  {
    const std::string dir = args.work_dir + "/wal-direct";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WalWriterOptions options;
    options.sync_policy = WalSyncPolicy::kInterval;
    StatusOr<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir, 0, 1, 0, options);
    if (!writer.ok()) Die("wal: " + writer.status().ToString());
    for (int i = 0; i < kWalAppends; ++i) {
      const StreamedReport& r = bench->fleet.reports[static_cast<size_t>(i)];
      WalRecord record;
      record.id = r.object_id;
      record.t = r.time;
      record.x = r.location.x;
      record.y = r.location.y;
      const Clock::time_point start = Clock::now();
      const Status status = (*writer)->Append(record, nullptr);
      wal_us.push_back(MicrosSince(start));
      if (!status.ok()) Die("wal append: " + status.ToString());
    }
    writer->reset();
    std::filesystem::remove_all(dir);
  }

  // mining: direct initial training and additive update on the histories
  // the store trains on under the library's default thresholds.
  std::vector<double> train_us, update_us;
  const HybridPredictorOptions predictor_options =
      StoreOptions("", nullptr).predictor;
  for (ObjectId id = 1; id <= kLayerSampleObjects; ++id) {
    const Trajectory& path = bench->fleet.Path(id);
    const StatusOr<Trajectory> first =
        path.Slice(0, kDirectTrainPeriods * kPeriod);
    const StatusOr<Trajectory> next =
        path.Slice(kDirectTrainPeriods * kPeriod,
                   (kDirectTrainPeriods + kDirectUpdatePeriods) * kPeriod);
    if (!first.ok() || !next.ok()) Die("history slice");
    Clock::time_point start = Clock::now();
    StatusOr<std::unique_ptr<HybridPredictor>> trained =
        HybridPredictor::Train(*first, predictor_options);
    train_us.push_back(MicrosSince(start));
    if (!trained.ok()) Die("train: " + trained.status().ToString());
    start = Clock::now();
    StatusOr<std::unique_ptr<HybridPredictor>> updated =
        (*trained)->WithNewHistory(*next);
    update_us.push_back(MicrosSince(start));
    if (!updated.ok()) Die("update: " + updated.status().ToString());
  }

  // core / motion: direct Predict and RMF-only calls on the evaluation
  // queries, against the served models.
  std::vector<double> predict_direct_us, rmf_us;
  for (ObjectId id = 1; id <= kObjects; ++id) {
    StatusOr<std::shared_ptr<const HybridPredictor>> model =
        store.GetPredictor(id);
    if (!model.ok()) continue;
    PredictiveQuery query;
    query.recent_movements =
        bench->fleet.Path(id).RecentMovements(now, kRecentWindow);
    query.current_time = now;
    for (Timestamp h = 1; h <= kMaxHorizon; ++h) {
      query.query_time = now + h;
      Clock::time_point start = Clock::now();
      const StatusOr<std::vector<Prediction>> full =
          (*model)->Predict(query);
      predict_direct_us.push_back(MicrosSince(start));
      start = Clock::now();
      const StatusOr<Prediction> rmf = (*model)->MotionFunctionPredict(query);
      rmf_us.push_back(MicrosSince(start));
      if (!full.ok() || !rmf.ok()) Die("direct predict failed");
    }
  }

  Phase("direct calls done");

  // Trace-derived layer times for the main op.
  const std::vector<TracedCall> calls =
      args.workload == Workload::kFleetScan
          ? Interleave(log.Calls("range"), log.Calls("nearest"))
          : log.Calls(args.workload == Workload::kIngest ? "report"
                                                         : "predict");
  if (calls.size() != main.main_us.size()) {
    tally.Mismatch("traced " + std::to_string(calls.size()) + " calls for " +
                   std::to_string(main.main_us.size()) + " requests");
  }
  auto stage_mean = [&](const char* stage) {
    std::vector<double> values;
    for (const TracedCall& call : calls) {
      const auto it = call.stage_us.find(stage);
      values.push_back(it == call.stage_us.end() ? 0.0 : it->second);
    }
    return Mean(values);
  };
  std::vector<double> objects_evaluated;
  double unattributed = 0.0, client_total = 0.0;
  for (size_t i = 0; i < calls.size() && i < main.main_us.size(); ++i) {
    objects_evaluated.push_back(calls[i].objects_evaluated);
    unattributed += calls[i].root_us - calls[i].children_us;
    client_total += main.main_us[i];
  }

  const double plain_p50 = Quantile(plain_main.main_us, 0.5);
  const double traced_p50 = Quantile(main.main_us, 0.5);
  const double core_us = Quantile(predict_direct_us, 0.5);
  const double rmf_p50 = Quantile(rmf_us, 0.5);
  const double eval_n = static_cast<double>(kEvalQueries);
  const double plain_ops = static_cast<double>(plain_main.ops);
  const bool ingest = args.workload == Workload::kIngest;
  const uint64_t fits = Delta(after, before, "store.motion_fits");
  // ingest's open-loop reader, read from the untraced pass.
  const IngestStream& reader = plain_main.ingest;

  const std::vector<Metric> metrics = {
      {"net.ping_us", Quantile(ping_us, 0.5), "us", Count(ping_us.size())},
      {"net.report_self_us",
       ingest ? SelfMicros(main.main_us, log.Calls("report")) : 0.0, "us",
       "client minus store root span"},
      {"net.predict_self_us",
       args.workload == Workload::kFleetScan
           ? 0.0
           : SelfMicros(main.predict_us, log.Calls("predict")),
       "us", "client minus store root span"},
      {"wal.append_us", Quantile(wal_us, 0.5), "us",
       Count(wal_us.size()) + " direct, interval sync"},
      {"wal.appended",
       static_cast<double>(Delta(after, before, "wal.appended")), "count",
       "main stream"},
      {"wal.synced", static_cast<double>(Delta(after, before, "wal.synced")),
       "count", "main stream"},
      {"mining.swaps", static_cast<double>(main.ingest.swaps), "count",
       "GetPredictor changes after reports"},
      {"mining.swap_report_us", Quantile(main.ingest.swap_report_us, 0.5),
       "us", Count(main.ingest.swap_report_us.size())},
      {"mining.train_us", Quantile(train_us, 0.5), "us",
       Count(train_us.size()) + " direct"},
      {"mining.update_us", Quantile(update_us, 0.5), "us",
       Count(update_us.size()) + " direct"},
      {"server.admit_us", stage_mean("admit"), "us", "trace mean"},
      {"server.plan_us", stage_mean("plan"), "us", "trace mean"},
      {"server.fanout_us", stage_mean("fanout"), "us", "trace mean"},
      {"server.merge_us", stage_mean("merge"), "us", "trace mean"},
      {"server.objects_evaluated", Mean(objects_evaluated), "count",
       "per main-stream request"},
      {"core.predict_us", core_us, "us",
       Count(predict_direct_us.size()) + " direct"},
      {"motion.rmf_us", rmf_p50, "us", Count(rmf_us.size()) + " direct"},
      {"core.pattern_side_us", core_us - rmf_p50, "us",
       "core.predict_us - motion.rmf_us"},
      {"motion.fits_per_query",
       Ratio(static_cast<double>(fits),
             static_cast<double>(main.predicting_ops)),
       "count", "per predicting request"},
      {"tpt.nodes_visited",
       static_cast<double>(Delta(eval_after, eval_before,
                                 "tpt.nodes_visited")) /
           eval_n,
       "count", "per predict, objects x horizons"},
      {"tpt.entries_tested",
       static_cast<double>(Delta(eval_after, eval_before,
                                 "tpt.entries_tested")) /
           eval_n,
       "count", "per predict, objects x horizons"},
      {"tpt.block_scans",
       static_cast<double>(Delta(eval_after, eval_before,
                                 "tpt.block_scans")) /
           eval_n,
       "count", "per predict, objects x horizons"},
      {"epoch.pinned",
       Ratio(static_cast<double>(
                 Delta(plain_after, plain_before, "epoch.pinned")),
             plain_ops),
       "count", "per operation, untraced pass"},
      {"epoch.retired",
       Ratio(static_cast<double>(
                 Delta(plain_after, plain_before, "epoch.retired")),
             plain_ops),
       "count", "per operation, untraced pass"},
      {"epoch.freed",
       Ratio(static_cast<double>(
                 Delta(plain_after, plain_before, "epoch.freed")),
             plain_ops),
       "count", "per operation, untraced pass"},
      {"unattributed_share", Ratio(unattributed, client_total), "share",
       "root span not covered by its stages"},
      {"trace.overhead_share", Ratio(traced_p50 - plain_p50, plain_p50),
       "share", "main-op p50, traced vs untraced pass"},
      {"driver.late_ms", reader.late_ms, "ms",
       "reader mean lateness, untraced pass"},
      {"reader.sent", static_cast<double>(reader.reader_sent), "count",
       "open-loop reader, untraced pass"},
      {"reader.succeeded", static_cast<double>(reader.reader_ok), "count",
       "open-loop reader, untraced pass"},
      {"reader.failed", static_cast<double>(reader.reader_failed), "count",
       "open-loop reader, untraced pass"},
      {"reader.p50_us", Quantile(reader.reader.us, 0.50), "us",
       Count(reader.reader.us.size()) + " from due time, untraced pass"},
      {"reader.p90_us", Quantile(reader.reader.us, 0.90), "us",
       "from due time, untraced pass"},
  };
  PrintTable("per-layer", metrics);
  TearDown(std::move(bench));
  return Finish(tally, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Phase("start");
  AllowedCpus();
  const Args args = ParseArgs(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  PrintFingerprint(args);
  return args.trace ? RunPerLayer(args) : RunEndToEnd(args, process_start);
}
