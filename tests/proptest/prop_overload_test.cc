// Property suite: random schedules against the overload-control layer.
// The contract under test: an AdmissionController under any
// admit/release/advance schedule never exceeds its in-flight cap or
// banks more than `burst` tokens, its rejections carry honest retry-after
// hints, and it never permanently starves a patient client. (Shard fault
// schedules against the store are P4 of prop_pipeline_test.) All time
// flows through an injected manual clock, so every failure replays from
// its seed.

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/admission.h"
#include "common/retry.h"
#include "proptest/proptest.h"

namespace hpm {
namespace {

using proptest::Property;
using proptest::RunnerOptions;

using AdmissionClock = AdmissionOptions::Clock;

struct ManualClock {
  AdmissionClock::time_point now{};
  std::function<AdmissionClock::time_point()> fn() {
    return [this] { return now; };
  }
  void Advance(std::chrono::microseconds d) { now += d; }
};

// --- Admission schedules — caps hold, hints are honest -------------

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

}  // namespace
}  // namespace hpm
