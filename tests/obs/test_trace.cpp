/// rlc::obs tracer: capture/rollup semantics, depth attribution, Chrome
/// trace-event export (parsed back through the rlc::io reader), overflow
/// accounting, and the tracing-on/off numerical-determinism contract.
/// The concurrent tests double as race detectors under the CI TSan job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "rlc/io/json_reader.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/scenario/registry.hpp"

namespace {

using rlc::obs::SpanGuard;
using rlc::obs::Tracer;

/// Busy-wait so every span has a measurable, strictly positive duration.
void spin_ns(std::int64_t ns) {
  const std::int64_t t0 = Tracer::now_ns();
  while (Tracer::now_ns() - t0 < ns) {
  }
}

const Tracer::SpanStats* find_span(const std::vector<Tracer::SpanStats>& roll,
                                   const std::string& name) {
  for (const auto& s : roll) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Every trace test starts from a quiet, empty tracer and leaves it that
/// way so tests cannot observe each other's spans.
struct TracerQuiesce {
  TracerQuiesce() {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  ~TracerQuiesce() {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST(Trace, DisabledTracerCapturesNothing) {
  TracerQuiesce q;
  ASSERT_FALSE(Tracer::enabled());
  for (int i = 0; i < 100; ++i) {
    RLC_TRACE_SPAN("t_trace_disabled");
  }
  EXPECT_EQ(Tracer::global().span_count(), 0u);
  EXPECT_TRUE(Tracer::global().rollup().empty());
}

TEST(Trace, CapturesNestedSpansWithDepthAttribution) {
  TracerQuiesce q;
  Tracer::global().enable();
  for (int i = 0; i < 3; ++i) {
    SpanGuard outer("t_trace_outer");
    spin_ns(200'000);
    {
      SpanGuard inner("t_trace_inner");
      spin_ns(100'000);
    }
  }
  Tracer::global().disable();

  EXPECT_EQ(Tracer::global().span_count(), 6u);
  const auto roll = Tracer::global().rollup();
  const auto* outer = find_span(roll, "t_trace_outer");
  const auto* inner = find_span(roll, "t_trace_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->count, 3u);
  // An outer span contains its inner span, so its total dominates...
  EXPECT_GT(outer->total_ns, inner->total_ns);
  // ...and only depth-0 spans contribute top-level time: all of the outer
  // time, none of the inner time.
  EXPECT_EQ(outer->top_level_ns, outer->total_ns);
  EXPECT_EQ(inner->top_level_ns, 0);
  EXPECT_GT(inner->total_ns, 0);

  // The rollup is sorted by total_ns descending.
  for (std::size_t i = 1; i < roll.size(); ++i) {
    EXPECT_GE(roll[i - 1].total_ns, roll[i].total_ns);
  }
}

TEST(Trace, ChromeTraceExportRoundTripsThroughJsonReader) {
  TracerQuiesce q;
  Tracer::global().enable();
  {
    SpanGuard s("t_trace_export");
    spin_ns(50'000);
  }
  std::thread worker([] {
    SpanGuard s("t_trace_export_worker");
    spin_ns(50'000);
  });
  worker.join();
  Tracer::global().disable();

  const std::string path = testing::TempDir() + "rlc_obs_trace_test.json";
  ASSERT_TRUE(Tracer::global().write_chrome_trace(path));
  const rlc::io::JsonValue doc = rlc::io::parse_json_file(path);

  const rlc::io::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t x_events = 0, meta_events = 0;
  bool saw_main = false, saw_worker_span = false;
  for (const auto& e : events->items()) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "X") {
      ++x_events;
      EXPECT_GE(e.number_or("ts", -1.0), 0.0);  // relative to the epoch
      EXPECT_GT(e.number_or("dur", -1.0), 0.0);
      if (e.string_or("name", "") == "t_trace_export_worker") {
        saw_worker_span = true;
      }
    } else if (ph == "M") {
      ++meta_events;
      EXPECT_EQ(e.string_or("name", ""), "thread_name");
      const rlc::io::JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      if (args->string_or("name", "") == "main") saw_main = true;
    }
  }
  EXPECT_EQ(x_events, 2u);  // one span per thread
  EXPECT_GE(meta_events, 2u);
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_worker_span);
  const rlc::io::JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->int_or("dropped_spans", -1), 0);
}

TEST(Trace, RollupDumpListsSpansInNameOrderWhateverTheirTotals) {
  TracerQuiesce q;
  // Capture two spans, `longer` spinning 100 times as long as the other,
  // until the by-time rollup puts `longer` first (a preempted short span
  // could outlast it once); return the dump's bytes.
  const auto dump_with_first = [](const char* longer) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      Tracer::global().clear();
      Tracer::global().enable();
      for (const char* name : {"t_trace_order_b", "t_trace_order_a"}) {
        SpanGuard s(name);
        spin_ns(std::string_view(name) == longer ? 2'000'000 : 20'000);
      }
      Tracer::global().disable();
      if (Tracer::global().rollup().front().name == longer) {
        return Tracer::global().rollup_json().str();
      }
    }
    ADD_FAILURE() << longer << " never took the longest total";
    return std::string();
  };
  const std::string b_first = dump_with_first("t_trace_order_b");
  const std::string a_first = dump_with_first("t_trace_order_a");
  for (const std::string& dump : {b_first, a_first}) {
    const auto a = dump.find("\"t_trace_order_a\"");
    const auto b = dump.find("\"t_trace_order_b\"");
    ASSERT_NE(a, std::string::npos) << dump;
    ASSERT_NE(b, std::string::npos) << dump;
    EXPECT_LT(a, b) << dump;
  }
}

TEST(Trace, ClearDropsSpansButKeepsCapturing) {
  TracerQuiesce q;
  Tracer::global().enable();
  {
    RLC_TRACE_SPAN("t_trace_before_clear");
  }
  ASSERT_EQ(Tracer::global().span_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().span_count(), 0u);
  EXPECT_TRUE(Tracer::global().rollup().empty());
  // The rings stay armed: new spans record into the cleared buffers.
  {
    RLC_TRACE_SPAN("t_trace_after_clear");
  }
  Tracer::global().disable();
  EXPECT_EQ(Tracer::global().span_count(), 1u);
  const auto roll = Tracer::global().rollup();
  ASSERT_EQ(roll.size(), 1u);
  EXPECT_EQ(roll[0].name, "t_trace_after_clear");
}

TEST(Trace, FullRingDropsNewestAndCountsThem) {
  TracerQuiesce q;
  Tracer::global().enable();
  const std::size_t attempts = Tracer::kRingCapacity + 100;
  for (std::size_t i = 0; i < attempts; ++i) {
    RLC_TRACE_SPAN("t_trace_flood");
  }
  Tracer::global().disable();
  EXPECT_EQ(Tracer::global().span_count(), Tracer::kRingCapacity);
  EXPECT_EQ(Tracer::global().dropped(), 100u);
  // The retained spans still roll up; the overflow only cost the newest.
  const auto roll = Tracer::global().rollup();
  const auto* flood = find_span(roll, "t_trace_flood");
  ASSERT_NE(flood, nullptr);
  EXPECT_EQ(flood->count, Tracer::kRingCapacity);
}

/// Several threads record while a reader drains rollups and exports: each
/// thread owns its ring, so nothing is lost and nothing races (TSan).
TEST(Trace, ConcurrentRecordingAndDrainingIsExact) {
  TracerQuiesce q;
  Tracer::global().enable();
  constexpr int kThreads = 4;
  constexpr int kSpans = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)Tracer::global().rollup();
      (void)Tracer::global().chrome_trace_json();
      (void)Tracer::global().span_count();
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        SpanGuard outer("t_trace_conc_outer");
        if (i % 4 == 0) {
          SpanGuard inner("t_trace_conc_inner");
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  Tracer::global().disable();

  const auto roll = Tracer::global().rollup();
  const auto* outer = find_span(roll, "t_trace_conc_outer");
  const auto* inner = find_span(roll, "t_trace_conc_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, static_cast<std::uint64_t>(kThreads) * kSpans);
  EXPECT_EQ(inner->count, static_cast<std::uint64_t>(kThreads) * kSpans / 4);
  EXPECT_EQ(Tracer::global().dropped(), 0u);
}

/// The observability contract rlc_run relies on: running a scenario with
/// tracing on must not change a single bit of its numbers, and the traced
/// run's envelope attributes its spans.
TEST(TraceDeterminism, ScenarioNumbersAreIdenticalWithTracingOnAndOff) {
  using namespace rlc::scenario;
  TracerQuiesce q;
  register_all_scenarios();
  const Scenario* s = ScenarioRegistry::global().find("fig7");
  ASSERT_NE(s, nullptr);
  const ScenarioSpec spec = quick_spec(s->defaults);

  const ScenarioResult off = run_scenario(*s, spec);
  Tracer::global().enable();
  const ScenarioResult on = run_scenario(*s, spec);
  Tracer::global().disable();

  ASSERT_TRUE(off.error.empty()) << off.error;
  ASSERT_TRUE(on.error.empty()) << on.error;
  EXPECT_EQ(on.numeric_fingerprint(), off.numeric_fingerprint());

  EXPECT_FALSE(off.observability.tracing);
  EXPECT_TRUE(off.observability.spans.empty());
  EXPECT_TRUE(on.observability.tracing);
  const auto* scenario_span = find_span(on.observability.spans, "fig7");
  ASSERT_NE(scenario_span, nullptr);
  EXPECT_EQ(scenario_span->count, 1u);
  const auto* newton_span = find_span(on.observability.spans, "newton_2d");
  ASSERT_NE(newton_span, nullptr);
  EXPECT_GT(newton_span->count, 0u);
}

// RLC_TRACE_RING parsing is strict for the same reason RLC_NUM_THREADS is:
// a garbled ring size is a configuration error worth stopping for, not
// something to paper over with the default.  (The drivers exit 2 on a bad
// value; the library constructor falls back to the default with a warning.)
TEST(TraceRingEnv, UnsetMeansDefault) {
  const auto parsed = Tracer::parse_ring_capacity_strict(nullptr);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, 0u);  // 0 = "use the compiled-in default"
}

TEST(TraceRingEnv, AcceptsPlainPositiveIntegers) {
  const auto parsed = Tracer::parse_ring_capacity_strict("4096");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, 4096u);
  const auto one = Tracer::parse_ring_capacity_strict("1");
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(*one, 1u);
  const auto max = Tracer::parse_ring_capacity_strict(
      std::to_string(Tracer::kMaxRingCapacity).c_str());
  ASSERT_TRUE(max.is_ok());
  EXPECT_EQ(*max, Tracer::kMaxRingCapacity);
}

TEST(TraceRingEnv, RejectsGarbageZeroNegativeAndOversize) {
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("  ").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("abc").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("12abc").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("4096.5").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("0").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict("-1").is_ok());
  EXPECT_FALSE(
      Tracer::parse_ring_capacity_strict("99999999999999999999").is_ok());
  EXPECT_FALSE(Tracer::parse_ring_capacity_strict(
                   std::to_string(Tracer::kMaxRingCapacity + 1).c_str())
                   .is_ok());
}

TEST(TraceRingEnv, DefaultRingCapacityMatchesTheCompiledConstant) {
  // The suite runs without RLC_TRACE_RING set, so the live tracer must
  // report the compiled-in default (FullRingDropsNewestAndCountsThem
  // depends on exactly this).
  EXPECT_EQ(Tracer::global().ring_capacity(), Tracer::kRingCapacity);
}

}  // namespace
