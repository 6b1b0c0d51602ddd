// Property suite: random fault schedules against the serving and
// persistence layers. The contracts under test:
//   * a fault schedule never crashes the store and never turns into a
//     non-degraded wrong answer — queries either match the fault-free
//     replay exactly or are flagged degraded (motion-function source),
//   * once faults stop, behaviour returns to fault-free-identical,
//   * a save killed at any random write point leaves the directory
//     loadable at the last committed state.
//
// Deadline degradation needs no hooks and runs in every build; the
// fault-schedule properties arm the injector and skip themselves when
// the hooks are compiled out.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

ObjectStoreOptions StoreOptions() {
  ObjectStoreOptions options;
  options.predictor.regions.period = kPeriod;
  options.predictor.regions.dbscan.eps = 12.0;
  options.predictor.regions.dbscan.min_pts = 3;
  options.predictor.mining.min_confidence = 0.2;
  options.predictor.mining.min_support = 2;
  options.predictor.distant_threshold = 5;
  options.predictor.region_match_slack = 6.0;
  options.min_training_periods = 4;
  options.recent_window = 5;
  return options;
}

struct FaultCase {
  uint64_t seed = 0;
  /// Per-object noisy periodic routes, replayed in object order.
  std::vector<std::vector<Point>> reports;
  /// Query horizons (prediction lengths), straddling the FQP/BQP split.
  std::vector<Timestamp> deltas;
  /// Probability an armed site fires per hit.
  double fault_probability = 0.0;
};

FaultCase GenCase(Random& rng) {
  FaultCase c;
  c.seed = rng.NextUint64();
  const int num_objects = static_cast<int>(1 + rng.Uniform(3));
  const int periods = static_cast<int>(5 + rng.Uniform(3));
  for (int i = 0; i < num_objects; ++i) {
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(rng, kExtent));
    }
    std::vector<Point> reports;
    for (int d = 0; d < periods; ++d) {
      for (Timestamp t = 0; t < kPeriod; ++t) {
        Point p = route[static_cast<size_t>(t)];
        p.x += rng.Gaussian(0.0, 2.0);
        p.y += rng.Gaussian(0.0, 2.0);
        reports.push_back(p);
      }
    }
    c.reports.push_back(std::move(reports));
  }
  const int num_deltas = static_cast<int>(2 + rng.Uniform(4));
  for (int i = 0; i < num_deltas; ++i) {
    c.deltas.push_back(static_cast<Timestamp>(1 + rng.Uniform(12)));
  }
  c.fault_probability = 0.1 + 0.8 * rng.NextDouble();
  return c;
}

std::string Ingest(MovingObjectStore& store, const FaultCase& input) {
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = static_cast<ObjectId>(i) * 7 + 1;
    for (const Point& p : input.reports[i]) {
      const Status status = store.ReportLocation(id, p);
      if (!status.ok()) {
        return "ingest failed for object " + std::to_string(id) + ": " +
               status.ToString();
      }
    }
  }
  return "";
}

ObjectId IdOf(size_t index) { return static_cast<ObjectId>(index) * 7 + 1; }

/// One comparable answer: flattened locations + sources + reasons.
struct Answer {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::vector<Point> locations;
  std::vector<PredictionSource> sources;
  std::vector<DegradedReason> reasons;
};

Answer Ask(const MovingObjectStore& store, ObjectId id, Timestamp tq,
           Deadline deadline = Deadline::Infinite()) {
  Answer answer;
  const auto result = store.PredictLocation(id, tq, 2, deadline);
  answer.ok = result.ok();
  answer.code = result.status().code();
  if (result.ok()) {
    for (const Prediction& p : *result) {
      answer.locations.push_back(p.location);
      answer.sources.push_back(p.source);
      answer.reasons.push_back(p.degraded);
    }
  }
  return answer;
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.ok != b.ok || a.code != b.code) return false;
  if (a.locations.size() != b.locations.size()) return false;
  for (size_t i = 0; i < a.locations.size(); ++i) {
    if (!(a.locations[i] == b.locations[i]) ||
        a.sources[i] != b.sources[i] || a.reasons[i] != b.reasons[i]) {
      return false;
    }
  }
  return true;
}

// --- P0: expired deadlines degrade, in any build -----------------------

std::string CheckDeadlineDegradation(const FaultCase& input) {
  FaultInjector::Global().Reset();
  MovingObjectStore store(StoreOptions());
  std::string failure = Ingest(store, input);
  if (!failure.empty()) return failure;

  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = IdOf(i);
    const bool trained = store.GetPredictor(id).ok();
    const Timestamp now =
        static_cast<Timestamp>(store.HistoryLength(id)) - 1;
    for (const Timestamp delta : input.deltas) {
      const Answer timely = Ask(store, id, now + delta);
      const Answer rushed =
          Ask(store, id, now + delta, Deadline::Expired());
      if (!timely.ok || !rushed.ok) {
        return "query failed (object " + std::to_string(id) + ", delta " +
               std::to_string(delta) + ")";
      }
      for (size_t j = 0; j < rushed.reasons.size(); ++j) {
        if (trained &&
            rushed.reasons[j] != DegradedReason::kDeadlineExceeded) {
          return "expired deadline did not degrade (object " +
                 std::to_string(id) + ")";
        }
        if (rushed.sources[j] != PredictionSource::kMotionFunction) {
          return "degraded answer not from the motion function";
        }
      }
      // Degradation is deterministic: asking again matches.
      if (!SameAnswer(rushed,
                      Ask(store, id, now + delta, Deadline::Expired()))) {
        return "degraded answer not deterministic";
      }
    }
  }
  return "";
}

TEST(PropFaultTest, ExpiredDeadlinesAlwaysDegradeGracefully) {
  Property<FaultCase> property("deadline-degradation", GenCase,
                               CheckDeadlineDegradation);
  RunnerOptions options;
  options.num_cases = 8;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P1: random pattern-side fault schedules ---------------------------

#ifdef HPM_ENABLE_FAULTS

std::string CheckPatternFaultSchedule(const FaultCase& input) {
  FaultInjector::Global().Reset();
  MovingObjectStore store(StoreOptions());
  std::string failure = Ingest(store, input);
  if (!failure.empty()) return failure;

  // Fault-free reference pass (queries are read-only).
  std::vector<Answer> clean;
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const Timestamp now =
        static_cast<Timestamp>(store.HistoryLength(IdOf(i))) - 1;
    for (const Timestamp delta : input.deltas) {
      clean.push_back(Ask(store, IdOf(i), now + delta));
    }
  }

  // Faulty pass: pattern lookups fail with probability p.
  FaultInjector::Global().Seed(input.seed);
  FaultRule rule;
  rule.probability = input.fault_probability;
  FaultInjector::Global().Arm("core/pattern_lookup", rule);

  size_t q = 0;
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = IdOf(i);
    const bool trained = store.GetPredictor(id).ok();
    const Timestamp now =
        static_cast<Timestamp>(store.HistoryLength(id)) - 1;
    for (const Timestamp delta : input.deltas) {
      const Answer faulty = Ask(store, id, now + delta);
      const Answer& reference = clean[q++];
      if (faulty.ok != reference.ok || faulty.code != reference.code) {
        return "fault schedule changed a query's status (object " +
               std::to_string(id) + ", delta " + std::to_string(delta) +
               ")";
      }
      if (!faulty.ok) continue;
      const bool degraded =
          !faulty.reasons.empty() &&
          faulty.reasons.front() == DegradedReason::kPatternUnavailable;
      if (degraded) {
        if (!trained) return "untrained object produced a degraded answer";
        for (const PredictionSource source : faulty.sources) {
          if (source != PredictionSource::kMotionFunction) {
            return "degraded answer not from the motion function";
          }
        }
      } else if (!SameAnswer(faulty, reference)) {
        // The wrong-answer clause: anything not flagged degraded must be
        // byte-identical to the fault-free answer.
        return "non-degraded answer differs from fault-free replay "
               "(object " +
               std::to_string(id) + ", delta " + std::to_string(delta) +
               ")";
      }
    }
  }

  // Faults stop: behaviour must return to fault-free-identical.
  FaultInjector::Global().Disarm("core/pattern_lookup");
  q = 0;
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const Timestamp now =
        static_cast<Timestamp>(store.HistoryLength(IdOf(i))) - 1;
    for (const Timestamp delta : input.deltas) {
      if (!SameAnswer(Ask(store, IdOf(i), now + delta), clean[q++])) {
        return "behaviour did not recover after faults stopped";
      }
    }
  }
  return "";
}

TEST(PropFaultTest, PatternFaultSchedulesNeverCorruptAnswers) {
  Property<FaultCase> property("pattern-fault-schedule", GenCase,
                               CheckPatternFaultSchedule);
  RunnerOptions options;
  options.num_cases = 8;
  const proptest::RunResult result = property.Run(options);
  FaultInjector::Global().Reset();
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P2: random training fault schedules -------------------------------

std::string CheckTrainFaultSchedule(const FaultCase& input) {
  FaultInjector::Global().Reset();

  // Clean twin: what the fleet looks like with no faults.
  MovingObjectStore clean(StoreOptions());
  std::string failure = Ingest(clean, input);
  if (!failure.empty()) return "clean twin: " + failure;

  // Faulty replay: training may fail; ingestion must survive it.
  FaultInjector::Global().Seed(input.seed);
  FaultRule rule;
  rule.probability = input.fault_probability;
  FaultInjector::Global().Arm("core/train", rule);
  MovingObjectStore faulty(StoreOptions());
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = IdOf(i);
    for (const Point& p : input.reports[i]) {
      const Status status = faulty.ReportLocation(id, p);
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        return "unexpected ingest error under train faults: " +
               status.ToString();
      }
    }
  }
  FaultInjector::Global().Disarm("core/train");

  // Histories are appended before training runs — they never regress.
  for (size_t i = 0; i < input.reports.size(); ++i) {
    if (faulty.HistoryLength(IdOf(i)) != clean.HistoryLength(IdOf(i))) {
      return "train faults corrupted an object's history";
    }
  }

  // Every object still answers queries, and any trained model is sound.
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = IdOf(i);
    const Timestamp now =
        static_cast<Timestamp>(faulty.HistoryLength(id)) - 1;
    const Answer answer = Ask(faulty, id, now + input.deltas.front());
    if (!answer.ok) {
      return "object stopped answering after train faults";
    }
    const auto predictor = faulty.GetPredictor(id);
    if (predictor.ok() && !(*predictor)->tpt().CheckInvariants().ok()) {
      return "train faults left a structurally broken model";
    }
  }

  // With faults gone, the next batches train successfully: after two more
  // clean periods every object has a model (the clean twin has one by
  // construction, since periods >= min_training_periods).
  for (size_t i = 0; i < input.reports.size(); ++i) {
    const ObjectId id = IdOf(i);
    for (size_t s = 0; s < 2 * static_cast<size_t>(kPeriod); ++s) {
      const Point& p =
          input.reports[i][s % input.reports[i].size()];
      const Status status = faulty.ReportLocation(id, p);
      if (!status.ok()) {
        return "ingest failed after faults stopped: " + status.ToString();
      }
    }
    if (!faulty.GetPredictor(id).ok()) {
      return "object failed to train after faults stopped";
    }
  }
  return "";
}

TEST(PropFaultTest, TrainFaultSchedulesNeverCorruptState) {
  Property<FaultCase> property("train-fault-schedule", GenCase,
                               CheckTrainFaultSchedule);
  RunnerOptions options;
  options.num_cases = 6;
  const proptest::RunResult result = property.Run(options);
  FaultInjector::Global().Reset();
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P3: random save-kill schedules ------------------------------------

std::string CheckSaveKillSchedule(const FaultCase& input) {
  FaultInjector::Global().Reset();
  MovingObjectStore store(StoreOptions());
  std::string failure = Ingest(store, input);
  if (!failure.empty()) return failure;

  const std::string dir = std::string(::testing::TempDir()) +
                          "/prop_fault_store_" + std::to_string(input.seed);
  std::filesystem::remove_all(dir);
  if (!store.SaveToDirectory(dir).ok()) return "clean save failed";

  const char* const kill_sites[] = {"store/save_object",
                                    "store/save_manifest",
                                    "store/save_commit", "io/atomic_write"};
  Random rng(input.seed);
  for (int round = 0; round < 4; ++round) {
    const char* site = kill_sites[rng.Uniform(4)];
    FaultInjector::Global().Reset();
    FaultRule rule;
    rule.from_nth_call = static_cast<int64_t>(1 + rng.Uniform(8));
    FaultInjector::Global().Arm(site, rule);
    const Status killed = store.SaveToDirectory(dir);
    FaultInjector::Global().Reset();

    // Killed or not, the directory must load to the store's state (it is
    // unchanged since the clean save, so every committed generation —
    // including one from a save that outran the kill point — serves it).
    auto restored = MovingObjectStore::LoadFromDirectory(dir, StoreOptions());
    if (!restored.ok()) {
      return std::string("unrecoverable after killing ") + site + " (" +
             (killed.ok() ? "save survived" : killed.ToString()) +
             "): " + restored.status().ToString();
    }
    for (size_t i = 0; i < input.reports.size(); ++i) {
      const ObjectId id = IdOf(i);
      if (restored->HistoryLength(id) != store.HistoryLength(id)) {
        return std::string("recovered history differs after killing ") +
               site;
      }
      const Timestamp now =
          static_cast<Timestamp>(store.HistoryLength(id)) - 1;
      const Answer expected = Ask(store, id, now + input.deltas.front());
      const Answer actual = Ask(*restored, id, now + input.deltas.front());
      if (!SameAnswer(expected, actual)) {
        return std::string("recovered answers differ after killing ") +
               site;
      }
    }
  }
  std::filesystem::remove_all(dir);
  return "";
}

TEST(PropFaultTest, SaveKillSchedulesAlwaysRecoverCommittedState) {
  Property<FaultCase> property("save-kill-schedule", GenCase,
                               CheckSaveKillSchedule);
  RunnerOptions options;
  options.num_cases = 6;
  const proptest::RunResult result = property.Run(options);
  FaultInjector::Global().Reset();
  EXPECT_TRUE(result.ok) << result.message;
}

#else  // !HPM_ENABLE_FAULTS

TEST(PropFaultTest, PatternFaultSchedulesNeverCorruptAnswers) {
  GTEST_SKIP() << "fault hooks compiled out";
}
TEST(PropFaultTest, TrainFaultSchedulesNeverCorruptState) {
  GTEST_SKIP() << "fault hooks compiled out";
}
TEST(PropFaultTest, SaveKillSchedulesAlwaysRecoverCommittedState) {
  GTEST_SKIP() << "fault hooks compiled out";
}

#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
