// Tests for the observability subsystem: metrics registry, structured
// trace recorder + exports, alert watchdog, and the end-to-end guarantee
// that attaching a hub never perturbs simulation results.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "scenario/scenario.hpp"

namespace dope::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, EncodeKeyCanonicalisesLabelOrder) {
  EXPECT_EQ(encode_key("net.dropped", {}), "net.dropped");
  const std::string ab =
      encode_key("net.dropped", {{"a", "1"}, {"b", "2"}});
  const std::string ba =
      encode_key("net.dropped", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, "net.dropped{a=\"1\",b=\"2\"}");
}

TEST(Metrics, RegistryReturnsStableDeduplicatedInstruments) {
  Registry reg;
  Counter& a = reg.counter("requests", {{"pool", "suspect"}});
  Counter& b = reg.counter("requests", {{"pool", "suspect"}});
  Counter& c = reg.counter("requests", {{"pool", "innocent"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc();
  a.inc(2.5);
  EXPECT_DOUBLE_EQ(b.value(), 3.5);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, RegistryRejectsKindMismatch) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histo("x"), std::logic_error);
}

TEST(Metrics, FindLooksUpByEncodedKeyWithoutCreating) {
  Registry reg;
  reg.counter("hits", {{"pool", "suspect"}}).inc(7);
  const Counter* found = reg.find_counter("hits{pool=\"suspect\"}");
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->value(), 7.0);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("hits{pool=\"suspect\"}"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, GaugeTracksExtremes) {
  Registry reg;
  Gauge& g = reg.gauge("soc");
  EXPECT_FALSE(g.written());
  g.set(0.5);
  g.set(0.2);
  g.set(0.8);
  EXPECT_TRUE(g.written());
  EXPECT_DOUBLE_EQ(g.value(), 0.8);
  EXPECT_DOUBLE_EQ(g.min_seen(), 0.2);
  EXPECT_DOUBLE_EQ(g.max_seen(), 0.8);
}

TEST(Metrics, HistoSummaryAndPercentiles) {
  Registry reg;
  Histo& h = reg.histo("overshoot_w");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log2 buckets: percentiles are approximate but must stay inside the
  // observed range, be monotone, and land in the right factor-2 band.
  const double p50 = h.percentile(50);
  const double p99 = h.percentile(99);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Metrics, HistoHandlesNonPositiveValues) {
  Histo h;
  h.observe(0.0);
  h.observe(-5.0);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(Metrics, WriteJsonEmitsAllSections) {
  Registry reg;
  reg.counter("hits", {{"pool", "suspect"}}).inc(3);
  reg.gauge("soc").set(0.75);
  reg.histo("lat_ms").observe(12.0);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histos\""), std::string::npos);
  EXPECT_NE(json.find("hits{pool=\\\"suspect\\\"}"), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
}

TEST(Metrics, WriteJsonEmitsKeysSorted) {
  // The registry's instrument index is an unordered_map; write_json must
  // emit each section sorted by key so the export bytes never depend on
  // hash/allocator order. Create instruments in a scrambled order and
  // lock in sorted emission.
  Registry reg;
  reg.counter("zeta").inc();
  reg.counter("alpha").inc();
  reg.counter("mid", {{"pool", "suspect"}}).inc();
  reg.gauge("soc").set(0.5);
  reg.gauge("budget_w").set(640.0);
  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();
  const auto alpha = json.find("\"alpha\"");
  const auto mid = json.find("\"mid{pool=");
  const auto zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
  EXPECT_LT(json.find("\"budget_w\""), json.find("\"soc\""));
}

// ------------------------------------------------------------------ trace

TraceEvent make_event(Time t, EventType type, const char* source) {
  TraceEvent e;
  e.t = t;
  e.type = type;
  e.source = source;
  return e;
}

TEST(Trace, CountsPerTypeAndDistinctTypes) {
  TraceRecorder rec;
  rec.record(make_event(1, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(2, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(3, EventType::kBudgetViolation, "cluster"));
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.count(EventType::kRequestForwarded), 2u);
  EXPECT_EQ(rec.count(EventType::kBudgetViolation), 1u);
  EXPECT_EQ(rec.count(EventType::kBreakerTrip), 0u);
  EXPECT_EQ(rec.distinct_types(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, CapDropsEventsLoudlyNotSilently) {
  TraceRecorder rec(TraceConfig{.max_events = 2});
  for (int i = 0; i < 5; ++i) {
    rec.record(make_event(i, EventType::kRequestForwarded, "edge"));
  }
  EXPECT_EQ(rec.recorded(), 5u);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  // Dropped events still count toward per-type stats.
  EXPECT_EQ(rec.count(EventType::kRequestForwarded), 5u);
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("TraceTruncated"), std::string::npos);
  EXPECT_NE(out.str().find("\"dropped\": 3"), std::string::npos);
}

TEST(Trace, JsonlRoundTripsPayloadAndEscapes) {
  TraceRecorder rec;
  TraceEvent e = make_event(1'500'000, EventType::kThrottleApplied, "dpm");
  e.num.emplace_back("deficit_w", 42.5);
  e.str.emplace_back("mode", "uniform \"quoted\"");
  rec.record(std::move(e));
  std::ostringstream out;
  rec.write_jsonl(out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"t_us\": 1500000"), std::string::npos);
  EXPECT_NE(line.find("\"t_s\": 1.5"), std::string::npos);
  EXPECT_NE(line.find("\"type\": \"ThrottleApplied\""), std::string::npos);
  EXPECT_NE(line.find("\"source\": \"dpm\""), std::string::npos);
  EXPECT_NE(line.find("\"deficit_w\": 42.5"), std::string::npos);
  EXPECT_NE(line.find("uniform \\\"quoted\\\""), std::string::npos);
}

TEST(Trace, ChromeExportLabelsOneRowPerSource) {
  TraceRecorder rec;
  rec.record(make_event(10, EventType::kRequestForwarded, "edge"));
  rec.record(make_event(20, EventType::kBatteryDischarge, "battery"));
  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"edge\""), std::string::npos);
  EXPECT_NE(json.find("\"battery\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 20"), std::string::npos);
}

// The packed trace store against the store it replaced: a plain
// std::vector<TraceEvent> and its writers (per-char JSON escaping
// included), kept here as the reference. Outputs must match byte for
// byte.

void reference_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void reference_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out << buf;
}

struct ReferenceTrace {
  std::vector<TraceEvent> events;
  std::uint64_t recorded = 0;
  std::size_t cap = 0;

  std::uint64_t dropped() const { return recorded - events.size(); }

  void write_payload(std::ostream& out, const TraceEvent& e,
                     const char* lead, bool first) const {
    for (const auto& [key, value] : e.num) {
      if (!first) out << lead;
      first = false;
      reference_json_string(out, key);
      out << ": ";
      reference_number(out, value);
    }
    for (const auto& [key, value] : e.str) {
      if (!first) out << lead;
      first = false;
      reference_json_string(out, key);
      out << ": ";
      reference_json_string(out, value);
    }
  }

  std::string jsonl() const {
    std::ostringstream out;
    for (const TraceEvent& e : events) {
      out << "{\"t_us\": " << e.t << ", \"t_s\": ";
      reference_number(out, to_seconds(e.t));
      out << ", \"type\": ";
      reference_json_string(out, event_type_name(e.type));
      out << ", \"source\": ";
      reference_json_string(out, e.source);
      write_payload(out, e, ", ", false);
      out << "}\n";
    }
    if (dropped() > 0) {
      out << "{\"type\": \"TraceTruncated\", \"dropped\": " << dropped()
          << ", \"cap\": " << cap << "}\n";
    }
    return out.str();
  }

  std::string chrome() const {
    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    std::map<std::string_view, int> tids;
    for (const TraceEvent& e : events) tids.emplace(e.source, 0);
    int next_tid = 1;
    for (auto& [source, tid] : tids) tid = next_tid++;
    bool first = true;
    for (const auto& [source, tid] : tids) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
          << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
      reference_json_string(out, source);
      out << "}}";
    }
    for (const TraceEvent& e : events) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
          << tids[e.source] << ", \"ts\": " << e.t << ", \"name\": ";
      reference_json_string(out, event_type_name(e.type));
      out << ", \"args\": {";
      write_payload(out, e, ", ", true);
      out << "}}";
    }
    if (dropped() > 0) {
      if (!first) out << ",\n";
      out << "{\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, "
             "\"ts\": 0, \"name\": \"TraceTruncated\", \"args\": "
             "{\"dropped\": "
          << dropped() << "}}";
    }
    out << "\n]}\n";
    return out.str();
  }
};

bool same_event(const TraceEventRef& got, const TraceEvent& want) {
  if (got.t != want.t || got.type != want.type ||
      std::string_view(got.source) != want.source ||
      got.num.size() != want.num.size() ||
      got.str.size() != want.str.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want.num.size(); ++i) {
    if (got.num[i].first != want.num[i].first) return false;
    // Bitwise: NaN payloads must survive storage too.
    if (std::memcmp(&got.num[i].second, &want.num[i].second,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  for (std::size_t i = 0; i < want.str.size(); ++i) {
    if (got.str[i].first != want.str[i].first ||
        got.str[i].second != want.str[i].second) {
      return false;
    }
  }
  return true;
}

/// A random string value: short literals the hot path repeats, JSON
/// escapes and control bytes, and heap-sized values.
std::string random_value(Rng& rng) {
  static const char* const kCommon[] = {"default", "pdf", "budget",
                                        "queue_full", ""};
  if (rng() % 2 == 0) return kCommon[rng() % 5];
  static const char kAlphabet[] =
      "abcXYZ019 _-\"\\\n\r\t\x01\x1f\x7f\xc3\xa9/";
  std::string s(rng() % 40, ' ');
  for (char& c : s) c = kAlphabet[rng() % (sizeof(kAlphabet) - 1)];
  return s;
}

void run_trace_store_differential(std::uint64_t seed, std::size_t cap,
                                  int events) {
  Rng rng(seed);
  static const char* const kSources[] = {"edge", "cluster", "dpm",
                                         "watchdog", "we\"ird\\src"};
  static const char* const kNumKeys[] = {"server", "url_class", "source_id",
                                         "zone", "overshoot_w", "k\"ey"};
  static const char* const kStrKeys[] = {"pool", "reason", "rule",
                                         "tab\tkey"};
  static const double kSpecial[] = {
      0.0, -0.0, 1e300, -3.5e-310, std::nan(""),
      std::numeric_limits<double>::infinity(), 123456789.123456789};

  TraceRecorder rec(TraceConfig{.max_events = cap});
  ReferenceTrace ref;
  ref.cap = cap;
  std::uint64_t listened = 0;
  const TraceEvent* current = nullptr;
  rec.set_listener([&](const TraceEventRef& e) {
    ++listened;
    ASSERT_NE(current, nullptr);
    EXPECT_TRUE(same_event(e, *current)) << "listener arg, event " << listened;
    if (rec.recorded() <= cap) {
      // A stored event is already the last of events() when the
      // listener runs.
      ASSERT_EQ(rec.events().size(), rec.recorded());
      EXPECT_TRUE(same_event(rec.events().back(), *current))
          << "events().back(), event " << listened;
    } else {
      EXPECT_EQ(rec.events().size(), cap);
    }
  });

  Time t = 0;
  for (int i = 0; i < events; ++i) {
    t += static_cast<Time>(rng() % 3) * 1000;
    {
      // The event and its strings die right after record().
      TraceEvent e;
      e.t = t;
      e.type = static_cast<EventType>(rng() % kEventTypeCount);
      e.source = kSources[rng() % 5];
      const std::size_t nums = rng() % (kMaxNumFields + 1);
      for (std::size_t k = 0; k < nums; ++k) {
        const double v =
            rng() % 5 == 0
                ? kSpecial[rng() % 7]
                : static_cast<double>(static_cast<std::int64_t>(rng() % 2001) -
                                      1000) /
                      7.0;
        e.num.emplace_back(kNumKeys[rng() % 6], v);
      }
      const std::size_t strs = rng() % (kMaxStrFields + 1);
      for (std::size_t k = 0; k < strs; ++k) {
        std::string value = random_value(rng);
        e.str.emplace_back(kStrKeys[rng() % 4], value);
      }
      ++ref.recorded;
      if (ref.events.size() < cap) ref.events.push_back(e);
      current = &e;
      rec.record(e);
      current = nullptr;
    }
    // Reuse the freed memory so a dangling view would read garbage.
    std::string scribble(64, static_cast<char>('A' + i % 26));
    ASSERT_EQ(scribble.size(), 64u);
  }

  ASSERT_EQ(listened, static_cast<std::uint64_t>(events));
  ASSERT_EQ(rec.recorded(), ref.recorded);
  ASSERT_EQ(rec.events().size(), ref.events.size());
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    ASSERT_TRUE(same_event(rec.events()[i], ref.events[i])) << "event " << i;
  }
  std::ostringstream jsonl;
  rec.write_jsonl(jsonl);
  EXPECT_EQ(jsonl.str(), ref.jsonl());
  std::ostringstream chrome;
  rec.write_chrome_trace(chrome);
  EXPECT_EQ(chrome.str(), ref.chrome());
}

TEST(Trace, PackedStoreMatchesVectorStoreByteForByte) {
  // 20k events of up to 200 B cross many 64 KiB chunks and the first
  // index block (16384 events).
  run_trace_store_differential(1, 1'000'000, 20'000);
  run_trace_store_differential(2, 1'000'000, 3'000);
}

TEST(Trace, PackedStoreMatchesVectorStorePastTheCap) {
  run_trace_store_differential(3, 17'000, 20'000);
  run_trace_store_differential(4, 0, 500);
}

TEST(Trace, PayloadPastItsCapIsRejected) {
  TraceEvent e;
  for (std::size_t k = 0; k < kMaxNumFields; ++k) e.num.emplace_back("n", 1);
  EXPECT_THROW(e.num.emplace_back("n", 1), std::invalid_argument);
  for (std::size_t k = 0; k < kMaxStrFields; ++k) e.str.emplace_back("s", "v");
  EXPECT_THROW(e.str.emplace_back("s", "v"), std::invalid_argument);
  EXPECT_EQ(e.num.size(), kMaxNumFields);
  EXPECT_EQ(e.str.size(), kMaxStrFields);
}

TEST(Trace, EmptyRecorderExportsAnEmptyEnvelope) {
  // Nothing recorded: the views are empty and exports are the empty
  // envelope.
  TraceRecorder rec;
  EXPECT_TRUE(rec.events().empty());
  std::ostringstream out;
  rec.write_chrome_trace(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\n]}\n");
}

TEST(Trace, EveryEventTypeHasAName) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    EXPECT_STRNE(event_type_name(static_cast<EventType>(i)), "?");
  }
}

// --------------------------------------------------------------- watchdog

TEST(Watchdog, RaisesOnlyAfterConsecutiveBreaches) {
  Watchdog dog;
  dog.add_rule({.name = "budget",
                .signal = "demand_w",
                .cmp = AlertCmp::kAbove,
                .threshold = 100.0,
                .consecutive = 3,
                .clear_after = 2});
  dog.observe("demand_w", 1, 150.0);
  dog.observe("demand_w", 2, 150.0);
  EXPECT_FALSE(dog.is_firing("budget"));
  // A clean window resets the streak.
  dog.observe("demand_w", 3, 50.0);
  dog.observe("demand_w", 4, 150.0);
  dog.observe("demand_w", 5, 150.0);
  EXPECT_FALSE(dog.is_firing("budget"));
  dog.observe("demand_w", 6, 150.0);
  EXPECT_TRUE(dog.is_firing("budget"));
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_EQ(dog.alerts()[0].raised_at, 6);
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 150.0);
  EXPECT_EQ(dog.active_count(), 1u);
}

TEST(Watchdog, ClearsAfterCleanStreakAndRearms) {
  Watchdog dog;
  dog.add_rule({.name = "soc-low",
                .signal = "soc",
                .cmp = AlertCmp::kBelow,
                .threshold = 0.25,
                .consecutive = 1,
                .clear_after = 2});
  dog.observe("soc", 1, 0.1);
  EXPECT_TRUE(dog.is_firing("soc-low"));
  dog.observe("soc", 2, 0.5);
  EXPECT_TRUE(dog.is_firing("soc-low"));  // one clean window is not enough
  dog.observe("soc", 3, 0.5);
  EXPECT_FALSE(dog.is_firing("soc-low"));
  EXPECT_EQ(dog.alerts()[0].cleared_at, 3);
  // Re-armed: a fresh breach opens a second alert.
  dog.observe("soc", 4, 0.1);
  EXPECT_TRUE(dog.is_firing("soc-low"));
  EXPECT_EQ(dog.alerts().size(), 2u);
  EXPECT_EQ(dog.active_count(), 1u);
}

TEST(Watchdog, SignalsAreIndependent) {
  Watchdog dog;
  dog.add_rule({.name = "a", .signal = "x", .threshold = 1.0});
  dog.add_rule({.name = "b", .signal = "y", .threshold = 1.0});
  dog.observe("x", 1, 5.0);
  EXPECT_TRUE(dog.is_firing("a"));
  EXPECT_FALSE(dog.is_firing("b"));
  EXPECT_EQ(dog.rule_count(), 2u);
}

TEST(Watchdog, MirrorsTransitionsIntoTrace) {
  TraceRecorder rec;
  Watchdog dog(&rec);
  dog.add_rule({.name = "hot", .signal = "w", .threshold = 10.0});
  dog.observe("w", 1, 20.0);
  dog.observe("w", 2, 5.0);
  EXPECT_EQ(rec.count(EventType::kAlertRaised), 1u);
  EXPECT_EQ(rec.count(EventType::kAlertCleared), 1u);
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("\"rule\": \"hot\""), std::string::npos);
}

// --------------------------------------------------- end-to-end via a Hub

scenario::ScenarioConfig small_attack_scenario() {
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kAntiDope;
  config.budget = power::BudgetLevel::kLow;
  config.num_servers = 4;
  config.normal_rps = 100.0;
  config.attack_rps = 200.0;
  config.duration = 60 * kSecond;
  config.seed = 7;
  return config;
}

TEST(Hub, AttachingObservabilityDoesNotPerturbResults) {
  const auto plain = scenario::run_scenario(small_attack_scenario());

  Hub hub;
  auto traced_config = small_attack_scenario();
  traced_config.obs = &hub;
  traced_config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(traced_config);

  // Byte-identical simulation: every reported number matches exactly.
  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  ASSERT_EQ(plain.power_timeline.size(), traced.power_timeline.size());
  for (std::size_t i = 0; i < plain.power_timeline.size(); ++i) {
    EXPECT_EQ(plain.power_timeline[i].value,
              traced.power_timeline[i].value);
  }

  // And the hub actually observed the run.
  EXPECT_GT(hub.trace().recorded(), 0u);
  EXPECT_GT(hub.registry().size(), 0u);
  const Counter* executed =
      hub.registry().find_counter("sim.events_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->value(), 0.0);
}

TEST(Hub, CountersAgreeWithClusterSlotStats) {
  Hub hub;
  auto config = small_attack_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  const Counter* violations =
      hub.registry().find_counter("cluster.violation_slots");
  ASSERT_NE(violations, nullptr);
  EXPECT_DOUBLE_EQ(
      violations->value(),
      static_cast<double>(result.slot_stats.violation_slots));
  EXPECT_EQ(hub.trace().count(EventType::kBudgetViolation),
            result.slot_stats.violation_slots);
}

// ------------------------------------------------------------------ spans

TEST(Spans, BeginEndPairsAndInstants) {
  SpanTracer tracer;
  Span root;
  root.id = span_id_for(42, SpanKind::kRequest);
  root.begin = 10;
  root.source_id = 7;
  tracer.begin(root);

  Span verdict;
  verdict.id = span_id_for(42, SpanKind::kFirewall);
  verdict.parent = root.id;
  verdict.kind = SpanKind::kFirewall;
  verdict.outcome = "pass";
  tracer.instant(verdict, 10);

  EXPECT_EQ(tracer.open_count(), 1u);
  tracer.end(root.id, 25, "completed");
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.unmatched_ends(), 0u);

  ASSERT_EQ(tracer.spans().size(), 2u);
  const Span& closed_root = tracer.spans()[0];
  EXPECT_EQ(closed_root.begin, 10);
  EXPECT_EQ(closed_root.end, 25);
  EXPECT_STREQ(closed_root.outcome, "completed");
  EXPECT_FALSE(closed_root.open());
  EXPECT_EQ(tracer.spans()[1].begin, tracer.spans()[1].end);
  EXPECT_EQ(tracer.count(SpanKind::kRequest), 1u);
  EXPECT_EQ(tracer.count(SpanKind::kFirewall), 1u);
}

TEST(Spans, UnknownEndsAreCountedNotFatal) {
  SpanTracer tracer;
  tracer.end(99, 5, "ghost");
  Span span;
  span.id = 1;
  tracer.begin(span);
  tracer.end(1, 2, "ok");
  tracer.end(1, 3, "again");  // already closed
  EXPECT_EQ(tracer.unmatched_ends(), 2u);
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(Spans, CapDropsSpansLoudlyNotSilently) {
  SpanTracer tracer(SpanConfig{.max_spans = 2});
  for (std::uint64_t i = 0; i < 5; ++i) {
    Span span;
    span.id = span_id_for(i, SpanKind::kRequest);
    span.begin = static_cast<Time>(i);
    tracer.begin(span);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  // Ends for spans dropped past the cap are unmatched, not fatal.
  tracer.end(span_id_for(4, SpanKind::kRequest), 9, "late");
  EXPECT_EQ(tracer.unmatched_ends(), 1u);

  std::ostringstream out;
  tracer.write_jsonl(out);
  EXPECT_NE(out.str().find("SpanTruncated"), std::string::npos);
  EXPECT_NE(out.str().find("\"dropped\": 3"), std::string::npos);
}

TEST(Spans, JsonlRecordsCarrySchemaFields) {
  SpanTracer tracer;
  Span span;
  span.id = span_id_for(3, SpanKind::kService);
  span.parent = span_id_for(3, SpanKind::kRequest);
  span.kind = SpanKind::kService;
  span.begin = 100;
  span.source_id = 1'000'001;
  span.url_class = 2;
  span.power_w = Watts{21.0};
  span.server = 1;
  span.slot = 0;
  tracer.begin(span);
  tracer.end(span.id, 250, "completed");

  std::ostringstream out;
  tracer.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\": \"SpanBegin\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"SpanEnd\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"service\""), std::string::npos);
  EXPECT_NE(text.find("\"power_w\": 21"), std::string::npos);
  EXPECT_NE(text.find("\"outcome\": \"completed\""), std::string::npos);
}

TEST(Trace, SetMaxEventsTightensCapAtRuntime) {
  TraceRecorder rec;
  rec.set_max_events(3);
  for (int i = 0; i < 4; ++i) {
    rec.record(make_event(i, EventType::kRequestForwarded, "edge"));
  }
  // Exactly at the boundary: the cap-th event is kept, the next dropped.
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.dropped(), 1u);
}

// --------------------------------------------------------------- live tap

TEST(Live, LatestReturnsFalseBeforeFirstPublish) {
  LiveTap tap;
  LiveSnapshot snap;
  EXPECT_FALSE(tap.latest(snap));
  EXPECT_EQ(tap.published(), 0u);
}

TEST(Live, PublishAssignsMonotoneSeqAndRoundTrips) {
  LiveTap tap;
  LiveSnapshot in;
  in.runs_total = 12;
  in.runs_completed = 3;
  in.runs_failed = 1;
  in.wall_ms_sum = 45.5;
  in.wall_ms_min = 10.25;
  in.wall_ms_max = 20.75;
  in.wall_ms_count = 3;
  tap.publish(in);
  in.runs_completed = 4;
  in.done = true;
  tap.publish(in);

  LiveSnapshot out;
  ASSERT_TRUE(tap.latest(out));
  EXPECT_EQ(out.seq, 2u);
  EXPECT_EQ(out.runs_total, 12u);
  EXPECT_EQ(out.runs_completed, 4u);
  EXPECT_EQ(out.runs_failed, 1u);
  EXPECT_EQ(out.wall_ms_sum, 45.5);
  EXPECT_EQ(out.wall_ms_min, 10.25);
  EXPECT_EQ(out.wall_ms_max, 20.75);
  EXPECT_EQ(out.wall_ms_count, 3u);
  EXPECT_TRUE(out.done);
}

TEST(Live, ConcurrentReaderAlwaysSeesConsistentSnapshot) {
  // Seqlock torn-read check (runs under TSan in CI): the reader must
  // only ever observe snapshots where the derived fields agree, even
  // while the producer rewrites slots at full speed.
  LiveTap tap;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    LiveSnapshot snap;
    while (!stop.load(std::memory_order_acquire)) {
      if (!tap.latest(snap)) continue;
      // Invariants the producer maintains on every publish; a torn
      // read would mix words from two different snapshots.
      if (snap.runs_completed != snap.wall_ms_count ||
          snap.wall_ms_sum !=
              static_cast<double>(snap.runs_completed) * 2.5) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  LiveSnapshot snap;
  snap.runs_total = 4096;
  for (std::uint64_t i = 1; i <= 4096; ++i) {
    snap.runs_completed = i;
    snap.wall_ms_count = i;
    snap.wall_ms_sum = static_cast<double>(i) * 2.5;
    tap.publish(snap);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u);
  LiveSnapshot last;
  ASSERT_TRUE(tap.latest(last));
  EXPECT_EQ(last.runs_completed, 4096u);
}

TEST(Live, JsonAndPrometheusExportsCarryAllFields) {
  LiveSnapshot snap;
  snap.seq = 3;
  snap.runs_total = 8;
  snap.runs_completed = 5;
  snap.runs_failed = 1;
  snap.wall_ms_sum = 50.0;
  snap.wall_ms_min = 5.0;
  snap.wall_ms_max = 15.0;
  snap.wall_ms_count = 5;
  snap.done = false;

  std::ostringstream json;
  write_live_json(json, snap);
  EXPECT_NE(json.str().find("\"runs_completed\": 5"), std::string::npos);
  EXPECT_NE(json.str().find("\"wall_ms_mean\": 10"), std::string::npos);
  EXPECT_NE(json.str().find("\"done\": false"), std::string::npos);

  std::ostringstream prom;
  write_live_prometheus(prom, snap);
  EXPECT_NE(prom.str().find("dope_sweep_runs_total 8"),
            std::string::npos);
  EXPECT_NE(prom.str().find("dope_sweep_runs_failed 1"),
            std::string::npos);
  EXPECT_NE(prom.str().find("dope_sweep_done 0"), std::string::npos);
}

TEST(Live, DrainLoopOverNeverPublishedTapSeesNothing) {
  // A CLI drainer polling a tap whose producer never publishes (e.g. a
  // campaign that fails before its first case) must observe "nothing"
  // every time — no phantom snapshot, no seq movement — and the
  // never-published default snapshot must still export as a well-formed
  // "seq 0" document rather than garbage.
  LiveTap tap;
  LiveSnapshot snap;
  snap.runs_total = 999;  // latest() must not leave stale fields behind
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(tap.latest(snap));
    EXPECT_EQ(tap.published(), 0u);
  }
  std::ostringstream json;
  write_live_json(json, LiveSnapshot{});
  EXPECT_NE(json.str().find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"done\": false"), std::string::npos);
  std::ostringstream prom;
  write_live_prometheus(prom, LiveSnapshot{});
  EXPECT_NE(prom.str().find("dope_sweep_runs_total 0"),
            std::string::npos);
}

// --------------------------------------------------------- obs edge cases

TEST(Forensics, ZeroRequestRunProducesEmptyRollup) {
  // Forensics on a run that never saw a request: no sources, no energy,
  // no violations — and the JSON export is still a complete document.
  HubConfig config;
  config.enable_spans = true;
  Hub hub(config);
  auto scenario_config = scenario::ScenarioConfig{};
  scenario_config.num_servers = 2;
  scenario_config.normal_rps = 0.0;
  scenario_config.attack_rps = 0.0;
  scenario_config.duration = 5 * kSecond;
  scenario_config.obs = &hub;
  scenario::run_scenario(scenario_config);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), scenario_config.duration);
  EXPECT_TRUE(forensics.sources().empty());
  EXPECT_EQ(forensics.total_joules().value(), 0.0);
  EXPECT_TRUE(forensics.top_by_joules(5).empty());
  std::ostringstream json;
  forensics.write_json(json);
  EXPECT_NE(json.str().find("\"total_joules\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"sources\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"ranking\": ["), std::string::npos);
}

TEST(Hub, TraceCapZeroKeepsTheHubsConfiguredCap) {
  // `ScenarioConfig::trace_cap == 0` means "do not touch the hub": the
  // run must leave whatever retention the caller configured in place.
  TraceConfig trace_config;
  trace_config.max_events = 123;
  HubConfig hub_config;
  hub_config.trace = trace_config;
  Hub hub(hub_config);

  auto config = scenario::ScenarioConfig{};
  config.num_servers = 2;
  config.normal_rps = 20.0;
  config.duration = 5 * kSecond;
  config.obs = &hub;
  config.trace_cap = 0;
  scenario::run_scenario(config);
  EXPECT_EQ(hub.trace().max_events(), 123u);

  // A positive cap overrides for the run (and is loud when it drops).
  Hub tightened;
  config.obs = &tightened;
  config.trace_cap = 1;
  config.default_alert_rules = true;  // guarantees recordable events
  scenario::run_scenario(config);
  EXPECT_EQ(tightened.trace().max_events(), 1u);
  if (tightened.trace().recorded() > 1) {
    EXPECT_GT(tightened.trace().dropped(), 0u);
    std::ostringstream jsonl;
    tightened.trace().write_jsonl(jsonl);
    EXPECT_NE(jsonl.str().find("TraceTruncated"), std::string::npos);
  }
}

}  // namespace
}  // namespace dope::obs
