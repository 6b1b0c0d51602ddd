// Property suite: random schedules against the overload-control layer.
// The contracts under test:
//   * a CircuitBreaker driven by any outcome/clock schedule makes only
//     legal transitions and is never stuck open — once the dependency
//     heals and the cooldown elapses, a bounded number of probes closes
//     it again,
//   * an AdmissionController under any admit/release/advance schedule
//     never exceeds its in-flight cap or banks more than `burst` tokens,
//     its rejections carry honest retry-after hints, and it never
//     permanently starves a patient client,
//   * (with -DHPM_ENABLE_FAULTS=ON) random per-shard fault schedules
//     against the store never fail a fleet query outright and never
//     leave a shard permanently starved: after faults clear, full
//     service returns within one half-open probe round.
// All time flows through injected manual clocks, so every failure
// replays from its seed.

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/admission.h"
#include "common/circuit_breaker.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "proptest/generators.h"
#include "proptest/proptest.h"
#include "server/object_store.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

using BreakerClock = CircuitBreakerOptions::Clock;
using State = CircuitBreaker::State;

struct ManualClock {
  BreakerClock::time_point now{};
  std::function<BreakerClock::time_point()> fn() {
    return [this] { return now; };
  }
  void Advance(std::chrono::microseconds d) { now += d; }
};

// --- P0: breaker schedules — legal transitions, never stuck open -------

struct BreakerCase {
  int window = 4;
  int min_samples = 2;
  double failure_threshold = 0.5;
  int half_open_successes = 1;
  /// Operation stream: 0 = Allow(+success), 1 = Allow(+failure),
  /// 2 = advance clock by half the cooldown, 3 = advance past cooldown.
  std::vector<int> ops;
};

BreakerCase GenBreakerCase(Random& rng) {
  BreakerCase c;
  c.window = static_cast<int>(2 + rng.Uniform(6));
  c.min_samples = 1 + static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(c.window)));
  c.failure_threshold = 0.25 + 0.75 * rng.NextDouble();
  c.half_open_successes = static_cast<int>(1 + rng.Uniform(3));
  const int num_ops = static_cast<int>(20 + rng.Uniform(120));
  for (int i = 0; i < num_ops; ++i) {
    c.ops.push_back(static_cast<int>(rng.Uniform(4)));
  }
  return c;
}

std::string CheckBreakerSchedule(const BreakerCase& input) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.window = input.window;
  options.min_samples = input.min_samples;
  options.failure_threshold = input.failure_threshold;
  options.open_duration = std::chrono::microseconds(1000);
  options.half_open_successes = input.half_open_successes;
  options.clock = clock.fn();
  CircuitBreaker breaker(options);

  std::string illegal;
  breaker.SetStateListener([&](State from, State to) {
    const bool legal = (from == State::kClosed && to == State::kOpen) ||
                       (from == State::kOpen && to == State::kHalfOpen) ||
                       (from == State::kHalfOpen && to == State::kClosed) ||
                       (from == State::kHalfOpen && to == State::kOpen);
    if (!legal) {
      illegal = std::string("illegal transition ") +
                CircuitBreaker::StateName(from) + " -> " +
                CircuitBreaker::StateName(to);
    }
  });

  for (const int op : input.ops) {
    switch (op) {
      case 0:
        if (breaker.state() == State::kClosed && !breaker.Allow()) {
          return "closed breaker refused a call";
        }
        if (breaker.Allow()) breaker.RecordSuccess();
        break;
      case 1:
        if (breaker.Allow()) breaker.RecordFailure();
        break;
      case 2:
        clock.Advance(std::chrono::microseconds(500));
        break;
      default:
        clock.Advance(std::chrono::microseconds(1100));
        break;
    }
    if (!illegal.empty()) return illegal;
  }

  // Liveness: the dependency heals. After one cooldown, at most
  // half_open_successes probes (plus one failed-probe allowance already
  // excluded — no failures from here on) must close the breaker.
  clock.Advance(std::chrono::microseconds(1100));
  for (int probe = 0; probe < input.half_open_successes + 1; ++probe) {
    if (breaker.state() == State::kClosed) break;
    if (breaker.Allow()) breaker.RecordSuccess();
  }
  if (breaker.state() != State::kClosed) {
    return std::string("breaker stuck ") +
           CircuitBreaker::StateName(breaker.state()) +
           " after the dependency healed";
  }
  if (!breaker.Allow()) return "closed breaker refused after recovery";
  return illegal;
}

TEST(PropOverloadTest, BreakerSchedulesNeverStickOpen) {
  Property<BreakerCase> property("breaker-schedule", GenBreakerCase,
                                 CheckBreakerSchedule);
  RunnerOptions options;
  options.num_cases = 40;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P1: admission schedules — caps hold, hints are honest -------------

struct AdmissionCase {
  double tokens_per_second = 100.0;
  double burst = 1.0;
  int max_in_flight = 0;
  /// 0 = admit, 1 = release oldest ticket, 2 = advance ~one token,
  /// 3 = advance a long stretch.
  std::vector<int> ops;
};

AdmissionCase GenAdmissionCase(Random& rng) {
  AdmissionCase c;
  c.tokens_per_second = 10.0 + 1000.0 * rng.NextDouble();
  c.burst = 1.0 + 4.0 * rng.NextDouble();
  c.max_in_flight = static_cast<int>(rng.Uniform(5));  // 0 = unlimited.
  const int num_ops = static_cast<int>(30 + rng.Uniform(150));
  for (int i = 0; i < num_ops; ++i) {
    c.ops.push_back(static_cast<int>(rng.Uniform(4)));
  }
  return c;
}

std::string CheckAdmissionSchedule(const AdmissionCase& input) {
  ManualClock clock;
  AdmissionOptions options;
  options.tokens_per_second = input.tokens_per_second;
  options.burst = input.burst;
  options.max_in_flight = input.max_in_flight;
  options.clock = clock.fn();
  AdmissionController controller(options);
  const auto one_token = std::chrono::microseconds(static_cast<int64_t>(
      1e6 / input.tokens_per_second + 1.0));

  std::vector<AdmissionTicket> held;
  for (const int op : input.ops) {
    switch (op) {
      case 0: {
        auto ticket = controller.Admit("prop");
        if (ticket.ok()) {
          held.push_back(std::move(*ticket));
        } else {
          if (ticket.status().code() != StatusCode::kUnavailable) {
            return "rejection was not kUnavailable: " +
                   ticket.status().ToString();
          }
          if (!RetryAfterHint(ticket.status()).has_value()) {
            return "rejection carried no retry-after hint: " +
                   ticket.status().ToString();
          }
        }
        break;
      }
      case 1:
        if (!held.empty()) {
          held.back().Release();
          held.pop_back();
        }
        break;
      case 2:
        clock.Advance(one_token);
        break;
      default:
        clock.Advance(std::chrono::seconds(10));
        break;
    }
    // Safety: the gauge and the bucket never exceed their caps.
    if (input.max_in_flight > 0 &&
        controller.in_flight() > input.max_in_flight) {
      return "in-flight gauge exceeded its cap";
    }
    if (controller.in_flight() != static_cast<int>(held.size())) {
      return "in-flight gauge out of sync with live tickets";
    }
    if (controller.available_tokens() > input.burst + 1e-9) {
      return "token bucket banked more than burst";
    }
  }

  // No permanent starvation: release everything, wait out any hint, and
  // a patient client is admitted.
  held.clear();
  clock.Advance(std::chrono::seconds(10));
  auto ticket = controller.Admit("patient");
  if (!ticket.ok()) {
    return "patient client starved after idle refill: " +
           ticket.status().ToString();
  }
  return "";
}

TEST(PropOverloadTest, AdmissionSchedulesKeepCapsAndNeverStarve) {
  Property<AdmissionCase> property("admission-schedule", GenAdmissionCase,
                                   CheckAdmissionSchedule);
  RunnerOptions options;
  options.num_cases = 40;
  const proptest::RunResult result = property.Run(options);
  EXPECT_TRUE(result.ok) << result.message;
}

// --- P2: shard fault schedules against the store -----------------------

#ifdef HPM_ENABLE_FAULTS

constexpr Timestamp kPeriod = 10;
const BoundingBox kExtent({0.0, 0.0}, {10000.0, 10000.0});

struct ShardFaultCase {
  uint64_t seed = 0;
  int num_shards = 4;
  int num_objects = 3;
  /// Rounds of (armed-shard bitmask, queries per round).
  std::vector<uint32_t> round_masks;
};

ShardFaultCase GenShardFaultCase(Random& rng) {
  ShardFaultCase c;
  c.seed = rng.NextUint64();
  c.num_shards = static_cast<int>(2 + rng.Uniform(4));
  c.num_objects = static_cast<int>(2 + rng.Uniform(3));
  const int rounds = static_cast<int>(2 + rng.Uniform(4));
  for (int r = 0; r < rounds; ++r) {
    c.round_masks.push_back(static_cast<uint32_t>(
        rng.Uniform(1u << c.num_shards)));
  }
  return c;
}

ObjectStoreOptions ShardStoreOptions(const ShardFaultCase& input,
                                     ManualClock* clock) {
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
  options.num_shards = input.num_shards;
  options.breaker.window = 4;
  options.breaker.min_samples = 2;
  options.breaker.failure_threshold = 0.5;
  options.breaker.open_duration = std::chrono::microseconds(1000);
  options.breaker.half_open_successes = 1;  // One probe restores service.
  options.breaker.clock = clock->fn();
  return options;
}

std::string CheckShardFaultSchedule(const ShardFaultCase& input) {
  FaultInjector::Global().Reset();
  ManualClock clock;
  MovingObjectStore store(ShardStoreOptions(input, &clock));

  Random data_rng(input.seed);
  Timestamp max_now = 0;
  for (ObjectId id = 0; id < input.num_objects; ++id) {
    std::vector<Point> route;
    for (Timestamp t = 0; t < kPeriod; ++t) {
      route.push_back(proptest::RandomPoint(data_rng, kExtent));
    }
    for (int day = 0; day < 5; ++day) {
      for (Timestamp t = 0; t < kPeriod; ++t) {
        Point p = route[static_cast<size_t>(t)];
        p.x += data_rng.Gaussian(0.0, 2.0);
        p.y += data_rng.Gaussian(0.0, 2.0);
        const Status status = store.ReportLocation(id, p);
        if (!status.ok()) return "ingest failed: " + status.ToString();
      }
    }
    max_now = std::max(max_now,
                       static_cast<Timestamp>(store.HistoryLength(id)));
  }
  const Timestamp tq = max_now + 3;
  const BoundingBox everywhere({-1e9, -1e9}, {1e9, 1e9});

  for (const uint32_t mask : input.round_masks) {
    for (int s = 0; s < input.num_shards; ++s) {
      if (mask & (1u << s)) {
        FaultRule rule;
        rule.always = true;
        FaultInjector::Global().Arm(ShardQueryFaultSite(s), rule);
      } else {
        FaultInjector::Global().Disarm(ShardQueryFaultSite(s));
      }
    }
    for (int q = 0; q < 3; ++q) {
      auto hits = store.PredictiveRangeQuery(everywhere, tq);
      // Invariant 1: shard faults never fail the query outright.
      if (!hits.ok()) {
        return "fleet query failed under shard faults: " +
               hits.status().ToString();
      }
      // Invariant 2: partiality is consistent with the skip list.
      if (hits->partial != !hits->skipped_shards.empty()) {
        return "partial flag inconsistent with skipped_shards";
      }
      // Invariant 3: a fault-free, breaker-closed pass covers everyone.
      if (mask == 0 && !hits->partial &&
          hits->hits.size() !=
              static_cast<size_t>(input.num_objects)) {
        return "clean full query missed objects";
      }
    }
    clock.Advance(std::chrono::microseconds(1100));
  }

  // Heal everything: no shard may stay starved. After the cooldown, one
  // probe round (half_open_successes=1) restores full service.
  for (int s = 0; s < input.num_shards; ++s) {
    FaultInjector::Global().Disarm(ShardQueryFaultSite(s));
  }
  clock.Advance(std::chrono::microseconds(1100));
  auto probe = store.PredictiveRangeQuery(everywhere, tq);  // Probes open shards.
  if (!probe.ok()) return "probe query failed";
  auto recovered = store.PredictiveRangeQuery(everywhere, tq);
  if (!recovered.ok()) return "recovered query failed";
  if (recovered->partial) {
    std::string open;
    for (int s = 0; s < store.num_shards(); ++s) {
      open += std::string(" shard") + std::to_string(s) + "=" +
              CircuitBreaker::StateName(store.BreakerState(s));
    }
    return "shard permanently starved after faults cleared:" + open;
  }
  if (recovered->hits.size() != static_cast<size_t>(input.num_objects)) {
    return "recovered query missed objects";
  }
  return "";
}

TEST(PropOverloadTest, ShardFaultSchedulesNeverStarveAShard) {
  Property<ShardFaultCase> property("shard-fault-schedule",
                                    GenShardFaultCase,
                                    CheckShardFaultSchedule);
  RunnerOptions options;
  options.num_cases = 6;
  const proptest::RunResult result = property.Run(options);
  FaultInjector::Global().Reset();
  EXPECT_TRUE(result.ok) << result.message;
}

#else  // !HPM_ENABLE_FAULTS

TEST(PropOverloadTest, ShardFaultSchedulesNeverStarveAShard) {
  GTEST_SKIP() << "fault hooks compiled out";
}

#endif  // HPM_ENABLE_FAULTS

}  // namespace
}  // namespace hpm
