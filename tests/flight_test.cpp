// Tests for the flight-recorder pillar: time-series downsampling edge
// cases (ring wrap at tier boundaries, runs shorter than one tier,
// zero-sample export), trigger dedup and the IncidentTruncated cap,
// and the end-to-end acceptance properties from docs/OBSERVABILITY.md —
// a breaker trip yields a schema-valid bundle whose pre-trigger power
// series reconciles with the energy account and whose suspect ranking
// matches obs::Forensics, and dopereport renders it. The incremental
// forensics fold the recorder captures with is checked against a copy
// of the one-shot std::map fold it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "obs/flight.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "power/breaker.hpp"
#include "scenario/scenario.hpp"

namespace dope::obs {
namespace {

// ------------------------------------------------ downsampling tiers

TEST(TimeSeries, TierBucketsFoldMinMeanMax) {
  TimeSeriesConfig config;
  Series series("s", config);
  // Values 0..24: bucket 0 folds 0..9, bucket 1 folds 10..19; 20..24
  // are still accumulating and must not appear in tier1 yet.
  for (int i = 0; i < 25; ++i) {
    series.sample(i * kSecond, static_cast<double>(i));
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), 2u);
  EXPECT_EQ(tier1[0].first_index, 0u);
  EXPECT_EQ(tier1[0].count, kTier1FanIn);
  EXPECT_EQ(tier1[0].min, 0.0);
  EXPECT_EQ(tier1[0].max, 9.0);
  EXPECT_DOUBLE_EQ(tier1[0].mean(), 4.5);
  EXPECT_EQ(tier1[1].first_index, 10u);
  EXPECT_EQ(tier1[1].min, 10.0);
  EXPECT_EQ(tier1[1].max, 19.0);
  EXPECT_DOUBLE_EQ(tier1[1].mean(), 14.5);
  EXPECT_TRUE(series.tier2().empty());  // needs 100 samples
  EXPECT_EQ(series.total_samples(), 25u);
  EXPECT_EQ(series.last_value(), 24.0);
}

TEST(TimeSeries, RawRingWrapKeepsTierBoundariesAligned) {
  // Raw ring shorter than one tier-1 bucket: eviction crosses every
  // bucket boundary, yet the folded aggregates must stay exact because
  // folding happens at sample time, not from the ring.
  TimeSeriesConfig config;
  config.raw_capacity = 7;
  Series series("s", config);
  for (int i = 0; i < 35; ++i) {
    series.sample(i * kSecond, static_cast<double>(i));
  }
  const auto raw = series.raw();
  ASSERT_EQ(raw.size(), 7u);
  // Oldest-first, indices monotone and surviving eviction: 28..34.
  for (std::size_t k = 0; k < raw.size(); ++k) {
    EXPECT_EQ(raw[k].index, 28u + k);
    EXPECT_EQ(raw[k].value, static_cast<double>(28 + k));
    if (k > 0) {
      EXPECT_GT(raw[k].index, raw[k - 1].index);
    }
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), 3u);
  for (std::size_t b = 0; b < tier1.size(); ++b) {
    EXPECT_EQ(tier1[b].first_index, b * kTier1FanIn);
    EXPECT_EQ(tier1[b].count, kTier1FanIn);
    const double lo = static_cast<double>(b * kTier1FanIn);
    EXPECT_EQ(tier1[b].min, lo);
    EXPECT_EQ(tier1[b].max, lo + 9.0);
    EXPECT_DOUBLE_EQ(tier1[b].mean(), lo + 4.5);
    EXPECT_LE(tier1[b].min, tier1[b].mean());
    EXPECT_LE(tier1[b].mean(), tier1[b].max);
  }
  // Whole-run totals ignore eviction entirely.
  EXPECT_EQ(series.total_samples(), 35u);
  EXPECT_DOUBLE_EQ(series.total_sum(), 35.0 * 34.0 / 2.0);
  EXPECT_EQ(series.seen_min(), 0.0);
  EXPECT_EQ(series.seen_max(), 34.0);
}

TEST(TimeSeries, TierRingsThemselvesWrap) {
  TimeSeriesConfig config;
  config.raw_capacity = 5;
  config.tier1_capacity = 3;
  Series series("s", config);
  // 60 samples = 6 tier-1 buckets; only the last 3 survive.
  for (int i = 0; i < 60; ++i) {
    series.sample(i * kSecond, static_cast<double>(i));
  }
  const auto tier1 = series.tier1();
  ASSERT_EQ(tier1.size(), 3u);
  EXPECT_EQ(tier1[0].first_index, 30u);
  EXPECT_EQ(tier1[1].first_index, 40u);
  EXPECT_EQ(tier1[2].first_index, 50u);
}

TEST(TimeSeries, RunShorterThanOneTier) {
  TimeSeriesConfig config;
  Series series("s", config);
  for (int i = 0; i < 4; ++i) {
    series.sample(i * kSecond, 2.0 * i);
  }
  EXPECT_EQ(series.raw().size(), 4u);
  EXPECT_TRUE(series.tier1().empty());
  EXPECT_TRUE(series.tier2().empty());
  std::ostringstream out;
  series.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"samples\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"tier10\": []"), std::string::npos);
  EXPECT_NE(json.find("\"tier100\": []"), std::string::npos);
}

TEST(TimeSeries, ZeroSampleExport) {
  TimeSeriesConfig config;
  Series series("empty", config);
  EXPECT_EQ(series.total_samples(), 0u);
  EXPECT_EQ(series.seen_min(), 0.0);
  EXPECT_EQ(series.seen_max(), 0.0);
  EXPECT_TRUE(series.raw().empty());
  std::ostringstream out;
  series.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"samples\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"raw\": []"), std::string::npos);
}

TEST(TimeSeriesStore, ExportIsNameSorted) {
  TimeSeriesStore store;
  store.series("zeta").sample(0, 1.0);
  store.series("alpha").sample(0, 2.0);
  std::ostringstream out;
  store.write_json(out);
  const std::string json = out.str();
  const auto alpha = json.find("\"alpha\"");
  const auto zeta = json.find("\"zeta\"");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, zeta);
  // Same handle on re-lookup.
  EXPECT_EQ(&store.series("alpha"), &store.series("alpha"));
  EXPECT_EQ(store.size(), 2u);
}

// ------------------------------------------------ trigger handling

TraceEvent breaker_trip(Time t) {
  TraceEvent e;
  e.t = t;
  e.type = EventType::kBreakerTrip;
  e.source = "breaker";
  e.num = {{"utility_w", 700.0}, {"rated_w", 550.0}, {"trips", 1.0}};
  return e;
}

TraceEvent budget_violation(Time t, int zone = -1) {
  TraceEvent e;
  e.t = t;
  e.type = EventType::kBudgetViolation;
  e.source = "cluster";
  e.num = {{"overshoot_w", 42.0}};
  if (zone >= 0) e.num.emplace_back("zone", static_cast<double>(zone));
  return e;
}

struct Rig {
  TraceRecorder trace;
  FlightRecorder flight;

  explicit Rig(FlightConfig config = {})
      : flight(config, nullptr, &trace, nullptr) {
    FlightRunContext context;
    context.seed = 42;
    context.scheme = "none";
    context.slot = 1 * kSecond;
    context.duration = 60 * kSecond;
    flight.set_run_context(context);
  }
};

TEST(FlightRecorder, SameSlotTriggersProduceOneIncident) {
  Rig rig;
  // Two triggers inside management slot 3 (t in [3 s, 4 s)).
  rig.flight.on_trace_event(breaker_trip(3 * kSecond));
  rig.flight.on_trace_event(
      budget_violation(3 * kSecond + 500 * kMillisecond));
  EXPECT_EQ(rig.flight.incident_count(), 1u);
  EXPECT_EQ(rig.flight.triggers(), 1u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
  // A trigger in the next slot is a fresh incident.
  rig.flight.on_trace_event(breaker_trip(4 * kSecond));
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
}

TEST(FlightRecorder, BudgetViolationOnsetOnly) {
  Rig rig;
  // Slots 1-2-3 are one continuing violation; slot 10 is a new onset.
  rig.flight.on_trace_event(budget_violation(1 * kSecond));
  rig.flight.on_trace_event(budget_violation(2 * kSecond));
  rig.flight.on_trace_event(budget_violation(3 * kSecond));
  rig.flight.on_trace_event(budget_violation(10 * kSecond));
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 0u);
}

TEST(FlightRecorder, ViolationOnsetsTrackedPerZone) {
  Rig rig;
  rig.flight.on_trace_event(budget_violation(1 * kSecond, 0));
  // Same slot, other zone: a distinct onset, deduped into the incident.
  rig.flight.on_trace_event(budget_violation(1 * kSecond, 1));
  // Zone 1 continues; zone 0 re-onsets after its gap.
  rig.flight.on_trace_event(budget_violation(2 * kSecond, 1));
  rig.flight.on_trace_event(budget_violation(5 * kSecond, 0));
  EXPECT_EQ(rig.flight.triggers(), 2u);
  EXPECT_EQ(rig.flight.deduped(), 1u);
}

TEST(FlightRecorder, CapEmitsIncidentTruncatedTrailer) {
  FlightConfig config;
  config.max_incidents = 2;
  Rig rig(config);
  for (int s = 0; s < 5; ++s) {
    rig.flight.on_trace_event(breaker_trip(s * kSecond));
  }
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  EXPECT_EQ(rig.flight.triggers(), 5u);
  EXPECT_EQ(rig.flight.dropped(), 3u);
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"IncidentTruncated\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cap\": 2"), std::string::npos);
}

TEST(FlightRecorder, ManualDumpAndAuditTriggersCapture) {
  Rig rig;
  rig.flight.dump_now(7 * kSecond, "operator");
  rig.flight.on_audit_failure(9 * kSecond, "battery_soc",
                              "soc below floor");
  EXPECT_EQ(rig.flight.incident_count(), 2u);
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ManualDump\""), std::string::npos);
  EXPECT_NE(json.find("\"AuditFailure\""), std::string::npos);
  EXPECT_NE(json.find("battery_soc: soc below floor"),
            std::string::npos);
}

TEST(FlightRecorder, BundleEnvelopeCarriesRunContext) {
  Rig rig;
  rig.flight.on_trace_event(breaker_trip(3 * kSecond));
  std::ostringstream out;
  rig.flight.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dope_incident_bundle\": 1"), std::string::npos);
  // Seed serialized as a string so >2^53 seeds survive JSON readers.
  EXPECT_NE(json.find("\"seed\": \"42\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\": \"BreakerTrip\""),
            std::string::npos);
  EXPECT_NE(json.find("utility_w=700"), std::string::npos);
}

// ------------------------------------------------ end-to-end bundle

scenario::ScenarioConfig breaker_trip_scenario() {
  scenario::ScenarioConfig config;
  // Undefended on purpose: Anti-DOPE caps the draw below any sane
  // breaker rating, which is the paper's point — the trip only happens
  // when nothing defends.
  config.scheme = scenario::SchemeKind::kNone;
  config.budget = power::BudgetLevel::kLow;
  config.num_servers = 4;
  config.normal_rps = 100.0;
  config.attack_rps = 400.0;
  config.duration = 60 * kSecond;
  config.seed = 42;
  power::BreakerSpec breaker;
  breaker.rated = Watts{300.0};
  config.breaker = breaker;
  return config;
}

Hub make_flight_hub() {
  HubConfig config;
  config.enable_spans = true;
  config.enable_timeseries = true;
  config.enable_flight = true;
  return Hub(config);
}

/// Extracts the first `"key": <integer>` occurrence after `from`.
std::int64_t find_int(const std::string& json, const std::string& key,
                      std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle, from);
  if (pos == std::string::npos) {
    throw std::runtime_error("key not found: " + key);
  }
  return std::stoll(json.substr(pos + needle.size()));
}

TEST(FlightScenario, BreakerTripYieldsSchemaValidBundle) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = false;  // isolate the breaker trigger
  scenario::run_scenario(config);

  ASSERT_NE(hub.flight(), nullptr);
  ASSERT_GE(hub.flight()->incident_count(), 1u);
  std::ostringstream out;
  hub.flight()->write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"dope_incident_bundle\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"trigger\": \"BreakerTrip\""),
            std::string::npos);
  // The triggering slot's samples are already in the snapshot: the
  // incident's slot_index appears in the demand series raw ring.
  const std::int64_t slot_index = find_int(json, "slot_index");
  EXPECT_GT(slot_index, 0);
  EXPECT_NE(json.find("\"cluster.slot_demand_w\""), std::string::npos);
  EXPECT_NE(json.find("\"breaker.heat\""), std::string::npos);
}

TEST(FlightScenario, PowerSeriesReconcilesWithEnergyAccount) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  ASSERT_NE(hub.timeseries(), nullptr);
  const Series* demand = hub.timeseries()->find("cluster.slot_demand_w");
  const Series* energy = hub.timeseries()->find("cluster.load_energy_j");
  ASSERT_NE(demand, nullptr);
  ASSERT_NE(energy, nullptr);
  // Σ(per-slot demand) × slot must reconcile with both the cumulative
  // energy series and the scenario's own energy account.
  const double slot_s = to_seconds(config.slot);
  const double from_series = demand->total_sum() * slot_s;
  const double account = result.energy.load_total().value();
  ASSERT_GT(account, 0.0);
  EXPECT_NEAR(from_series / account, 1.0, 1e-3);
  EXPECT_NEAR(energy->last_value() / account, 1.0, 1e-3);
}

TEST(FlightScenario, SuspectRankingMatchesForensics) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.breaker.reset();  // only the explicit end-of-run dump captures
  config.obs = &hub;
  config.default_alert_rules = false;
  scenario::run_scenario(config);
  hub.flight()->dump_now(config.duration, "test");

  ASSERT_GE(hub.flight()->incident_count(), 1u);
  std::ostringstream out;
  hub.flight()->write_json(out);
  const std::string json = out.str();

  // Rebuild the ranking over the same span log at the same horizon; the
  // end-of-run dump's suspect list must match it exactly, in order.
  const Forensics forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  const auto top = forensics.top_by_joules(5);
  ASSERT_FALSE(top.empty());
  const auto dump_pos = json.find("\"ManualDump\"");
  ASSERT_NE(dump_pos, std::string::npos);
  const auto forensics_pos = json.find("\"forensics\"", dump_pos);
  ASSERT_NE(forensics_pos, std::string::npos);
  std::size_t cursor = forensics_pos;
  for (const SourceStats& s : top) {
    // Jump to this entry's start so every field read stays inside it.
    cursor = json.find("\"source_id\"", cursor);
    ASSERT_NE(cursor, std::string::npos);
    EXPECT_EQ(find_int(json, "source_id", cursor),
              static_cast<std::int64_t>(s.source_id));
    EXPECT_EQ(find_int(json, "requests", cursor),
              static_cast<std::int64_t>(s.requests));
    EXPECT_EQ(find_int(json, "violation_overlaps", cursor),
              static_cast<std::int64_t>(s.violation_overlaps));
    ++cursor;
  }
}

TEST(FlightScenario, AttachedRecorderDoesNotPerturbResults) {
  const auto plain = scenario::run_scenario(breaker_trip_scenario());

  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(config);

  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.energy.utility, traced.energy.utility);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
}

// ------------------------------------------------ incremental forensics

/// The one-shot fold `Forensics::build` used before the incremental
/// builder: every call re-folds the whole span log through std::maps.
struct ReferenceForensics {
  std::vector<SourceStats> sources;
  Joules total_joules{0.0};
  std::uint64_t violation_events = 0;
};

ReferenceForensics reference_build(const SpanTracer& spans,
                                   const TraceRecorder& trace,
                                   Time horizon) {
  struct SourceAccum {
    SourceStats stats;
    std::map<std::uint32_t, Joules> class_joules;
    std::map<std::uint32_t, std::uint64_t> class_requests;
    std::map<std::int32_t, Joules> zone_joules;
  };
  ReferenceForensics out;
  std::vector<Time> violations;
  for (const TraceEventRef e : trace.events()) {
    if (e.type == EventType::kBudgetViolation) violations.push_back(e.t);
  }
  out.violation_events = violations.size();
  if (horizon < 0) {
    for (const Span& span : spans.spans()) {
      horizon = std::max(horizon, span.begin);
      horizon = std::max(horizon, span.end);
    }
  }
  std::map<std::uint32_t, SourceAccum> accum;
  for (const Span& span : spans.spans()) {
    SourceAccum& a = accum[span.source_id];
    a.stats.source_id = span.source_id;
    if (span.kind == SpanKind::kRequest) {
      ++a.stats.requests;
      ++a.class_requests[span.url_class];
      if (std::string_view(span.outcome) == "completed") {
        ++a.stats.completed;
      }
    } else if (span.kind == SpanKind::kService) {
      const Time end = span.open() ? horizon : span.end;
      const Duration held = std::max<Duration>(end - span.begin, 0);
      a.stats.joules += span.power_w * held;
      a.stats.occupancy_ms += to_seconds(held) * 1e3;
      a.class_joules[span.url_class] += span.power_w * held;
      if (span.zone >= 0) a.zone_joules[span.zone] += span.power_w * held;
      const auto lo =
          std::lower_bound(violations.begin(), violations.end(), span.begin);
      const auto hi =
          std::upper_bound(violations.begin(), violations.end(), end);
      a.stats.violation_overlaps += static_cast<std::uint64_t>(hi - lo);
    }
  }
  for (auto& [source_id, a] : accum) {
    Joules best_j{0.0};
    for (const auto& [cls, j] : a.class_joules) {
      if (j > best_j) {
        best_j = j;
        a.stats.dominant_class = cls;
      }
    }
    if (best_j <= Joules{0.0}) {
      std::uint64_t best_n = 0;
      for (const auto& [cls, n] : a.class_requests) {
        if (n > best_n) {
          best_n = n;
          a.stats.dominant_class = cls;
        }
      }
    }
    Joules best_zone_j{0.0};
    for (const auto& [zone, j] : a.zone_joules) {
      if (j > best_zone_j) {
        best_zone_j = j;
        a.stats.dominant_zone = zone;
      }
    }
    out.total_joules += a.stats.joules;
    out.sources.push_back(a.stats);
  }
  return out;
}

TraceEvent event_at(Time t, EventType type) {
  TraceEvent e;
  e.t = t;
  e.type = type;
  return e;
}

void expect_same_rollup(const Forensics& got, const ReferenceForensics& want,
                        const std::string& where) {
  ASSERT_EQ(got.sources().size(), want.sources.size()) << where;
  // Exact equality throughout: the builder must add in the same order.
  EXPECT_EQ(got.total_joules().value(), want.total_joules.value()) << where;
  EXPECT_EQ(got.violation_events(), want.violation_events) << where;
  for (std::size_t i = 0; i < want.sources.size(); ++i) {
    const SourceStats& g = got.sources()[i];
    const SourceStats& w = want.sources[i];
    ASSERT_EQ(g.source_id, w.source_id) << where;
    EXPECT_EQ(g.requests, w.requests) << where << " src " << w.source_id;
    EXPECT_EQ(g.completed, w.completed) << where << " src " << w.source_id;
    EXPECT_EQ(g.joules.value(), w.joules.value())
        << where << " src " << w.source_id;
    EXPECT_EQ(g.occupancy_ms, w.occupancy_ms)
        << where << " src " << w.source_id;
    EXPECT_EQ(g.violation_overlaps, w.violation_overlaps)
        << where << " src " << w.source_id;
    EXPECT_EQ(g.dominant_class, w.dominant_class)
        << where << " src " << w.source_id;
    EXPECT_EQ(g.dominant_zone, w.dominant_zone)
        << where << " src " << w.source_id;
  }
}

/// Random span/violation history with random advance and snapshot
/// points; every snapshot (and a fresh `Forensics::build`) must equal the
/// reference fold over the log as it stands.
void run_builder_differential(std::uint64_t seed, std::size_t cap) {
  Rng rng(seed);
  SpanTracer spans(SpanConfig{.max_spans = cap});
  TraceRecorder trace;
  ForensicsBuilder builder;
  const char* const outcomes[] = {"completed", "completed", "timeout"};
  std::vector<std::uint64_t> open;       // closable soon
  std::vector<std::uint64_t> long_open;  // closed rarely, if ever
  std::uint64_t next_request = 1;
  Time now = 0;
  int snapshots = 0;
  int builds = 0;
  for (int step = 0; step < 6000; ++step) {
    // Zero steps keep several spans, violations and advances at one
    // instant.
    now += static_cast<Time>(rng() % 4) * 250;
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 30) {
      // A request: root, two verdict instants, and a queue or service
      // span, from one of 16 sources over 4 classes and 3 zones.
      const std::uint64_t request = next_request++;
      Span root;
      root.id = span_id_for(request, SpanKind::kRequest);
      root.kind = SpanKind::kRequest;
      root.begin = now;
      root.source_id = 1000 + static_cast<std::uint32_t>(rng() % 16);
      root.url_class = static_cast<std::uint32_t>(rng() % 4);
      root.zone = static_cast<int>(rng() % 4) - 1;
      spans.begin(root);
      Span child = root;
      child.parent = root.id;
      for (SpanKind kind : {SpanKind::kFirewall, SpanKind::kLbPick}) {
        child.kind = kind;
        child.id = span_id_for(request, kind);
        spans.instant(child, now);
      }
      child.kind = rng() % 3 == 0 ? SpanKind::kQueue : SpanKind::kService;
      child.id = span_id_for(request, child.kind);
      child.power_w = Watts{static_cast<double>(rng() % 4000) / 37.0};
      spans.begin(child);
      auto& pool = rng() % 20 == 0 ? long_open : open;
      pool.push_back(child.id);
      pool.push_back(root.id);
    } else if (op < 60 && !open.empty()) {
      const std::size_t k = rng() % open.size();
      spans.end(open[k], now, outcomes[rng() % 3]);
      if (rng() % 8 == 0) {
        // A violation at the very instant a span closes: it overlaps.
        trace.record(event_at(now, EventType::kBudgetViolation));
      }
      open[k] = open.back();
      open.pop_back();
    } else if (op < 61 && !long_open.empty()) {
      spans.end(long_open.back(), now, outcomes[rng() % 3]);
      long_open.pop_back();
    } else if (op < 68) {
      trace.record(event_at(now, rng() % 3 == 0
                                     ? EventType::kThrottleApplied
                                     : EventType::kBudgetViolation));
    } else if (op < 80) {
      builder.advance(spans, trace, now);
    } else if (op == 99) {
      // A quiet instant: everything closes at `now`, a capture advances
      // at `now`, then another violation lands at `now`. The spans that
      // closed at `now` overlap it, so they must not have been folded.
      for (auto* pool : {&open, &long_open}) {
        for (const std::uint64_t id : *pool) {
          spans.end(id, now, outcomes[rng() % 3]);
        }
        pool->clear();
      }
      builder.advance(spans, trace, now);
      trace.record(event_at(now, EventType::kBudgetViolation));
    } else if (op < 85) {
      const Time horizon = rng() % 4 == 0 ? Time{-1} : now;
      const std::string where = "seed " + std::to_string(seed) +
                                " step " + std::to_string(step);
      expect_same_rollup(builder.snapshot(spans, trace, horizon),
                         reference_build(spans, trace, horizon), where);
      ++snapshots;
    } else if (op < 87) {
      // Mid-run export: advances the span log's own builder, which
      // later exports must keep agreeing with.
      const Time horizon = rng() % 4 == 0 ? Time{-1} : now;
      const std::string where = "seed " + std::to_string(seed) +
                                " step " + std::to_string(step) + " build";
      expect_same_rollup(Forensics::build(spans, trace, horizon),
                         reference_build(spans, trace, horizon), where);
      ++builds;
      // A violation at the export's instant overlaps every span that
      // closed at it, so the export must not have folded those.
      if (rng() % 2 == 0) {
        trace.record(event_at(now, EventType::kBudgetViolation));
      }
    }
  }
  const ReferenceForensics final_ref = reference_build(spans, trace, now);
  expect_same_rollup(builder.snapshot(spans, trace, now), final_ref,
                     "final snapshot");
  expect_same_rollup(Forensics::build(spans, trace, now), final_ref,
                     "fresh build");
  EXPECT_GT(snapshots, 100);
  EXPECT_GT(builds, 40);
  EXPECT_GT(spans.forensics().watermark(), 0u);
  // The watermark moved, and every span below it is closed.
  EXPECT_GT(builder.watermark(), 0u);
  for (std::size_t i = 0; i < builder.watermark(); ++i) {
    ASSERT_FALSE(spans.spans()[i].open());
  }
}

TEST(ForensicsBuilder, SnapshotsMatchReferenceFold) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_builder_differential(seed, 1'000'000);
  }
}

TEST(ForensicsBuilder, SnapshotsMatchReferenceFoldPastTheSpanCap) {
  run_builder_differential(9, 4000);
}

TEST(ForensicsBuilder, FoldsOnlyTheClosedPrefix) {
  SpanTracer spans;
  TraceRecorder trace;
  Span a;
  a.id = span_id_for(1, SpanKind::kService);
  a.kind = SpanKind::kService;
  a.source_id = 7;
  a.power_w = Watts{100.0};
  a.begin = 0;
  spans.begin(a);
  Span b = a;
  b.id = span_id_for(2, SpanKind::kService);
  b.begin = 10;
  spans.begin(b);
  spans.end(a.id, 20, "completed");

  ForensicsBuilder builder;
  builder.advance(spans, trace, 20);  // a ends at 20: not before now
  EXPECT_EQ(builder.watermark(), 0u);
  builder.advance(spans, trace, 21);
  EXPECT_EQ(builder.watermark(), 1u);  // b is open and blocks the rest
  // A violation at t=21 overlaps the open span b, not the folded a.
  trace.record(event_at(21, EventType::kBudgetViolation));
  const Forensics at_30 = builder.snapshot(spans, trace, 30);
  ASSERT_EQ(at_30.sources().size(), 1u);
  EXPECT_EQ(at_30.sources()[0].violation_overlaps, 1u);
  EXPECT_EQ(at_30.violation_events(), 1u);
  // b clamps to the horizon: 20 us + 20 us of slot time.
  EXPECT_DOUBLE_EQ(at_30.sources()[0].occupancy_ms, 0.04);
  spans.end(b.id, 40, "completed");
  builder.advance(spans, trace, 41);
  EXPECT_EQ(builder.watermark(), 2u);
  expect_same_rollup(builder.snapshot(spans, trace),
                     reference_build(spans, trace, -1), "closed");
}

TEST(ForensicsBuilder, ExportAfterFlightRecordedRunEqualsFreshFold) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  scenario::run_scenario(config);
  ASSERT_GT(hub.flight()->incident_count(), 0u);
  // The captures advanced the span log's builder.
  const SpanTracer& spans = *hub.spans();
  EXPECT_GT(spans.forensics().watermark(), 0u);

  const auto json = [](const Forensics& f) {
    std::ostringstream out;
    f.write_json(out);
    return out.str();
  };
  const std::string fresh = json(
      ForensicsBuilder{}.snapshot(spans, hub.trace(), config.duration));
  EXPECT_EQ(json(Forensics::build(spans, hub.trace(), config.duration)),
            fresh);
  // Twice: the second export folds nothing new and still agrees.
  EXPECT_EQ(json(Forensics::build(spans, hub.trace(), config.duration)),
            fresh);
  expect_same_rollup(Forensics::build(spans, hub.trace(), -1),
                     reference_build(spans, hub.trace(), -1), "horizon -1");

  // Another recorder's violations: a fresh fold, not the cached one.
  TraceRecorder other;
  other.record(event_at(5 * kSecond, EventType::kBudgetViolation));
  other.record(event_at(6 * kSecond, EventType::kBudgetViolation));
  const Forensics against_other =
      Forensics::build(spans, other, config.duration);
  EXPECT_EQ(against_other.violation_events(), 2u);
  expect_same_rollup(against_other,
                     reference_build(spans, other, config.duration),
                     "other recorder");
  // ... and the hub's own recorder is served right again after it.
  EXPECT_EQ(json(Forensics::build(spans, hub.trace(), config.duration)),
            fresh);
}

// ------------------------------------------------------------ SLO rollup

/// The SLO section as the bundle wrote it before it came from the
/// forensics fold: one scan over every span into per-class std::map
/// latency vectors, each fully sorted.
std::string reference_slo_json(const SpanTracer& spans,
                               const FlightConfig& config) {
  struct ClassStats {
    std::vector<double> lat_ms;
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t breaches = 0;
  };
  const auto percentile = [](const std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank - 1.0, 0.0,
                   static_cast<double>(sorted.size()) - 1.0));
    return sorted[idx];
  };
  std::map<std::uint32_t, ClassStats> classes;
  for (const Span& span : spans.spans()) {
    if (span.kind != SpanKind::kRequest || span.open()) continue;
    ClassStats& c = classes[span.url_class];
    ++c.requests;
    const bool completed = std::string_view(span.outcome) == "completed";
    if (completed) ++c.completed;
    const double lat_ms =
        static_cast<double>(span.end - span.begin) / 1000.0;
    c.lat_ms.push_back(lat_ms);
    if (!completed || lat_ms > config.slo_latency_ms) ++c.breaches;
  }
  std::ostringstream out;
  out << "{\"objective_ms\": ";
  write_json_number(out, config.slo_latency_ms);
  out << ", \"error_budget\": ";
  write_json_number(out, config.slo_error_budget);
  out << ", \"classes\": [";
  bool first = true;
  for (auto& [url_class, c] : classes) {
    if (!first) out << ',';
    first = false;
    std::sort(c.lat_ms.begin(), c.lat_ms.end());
    const double requests = static_cast<double>(c.requests);
    const double breach_rate =
        c.requests ? static_cast<double>(c.breaches) / requests : 0.0;
    const double burn = config.slo_error_budget > 0.0
                            ? breach_rate / config.slo_error_budget
                            : 0.0;
    out << "\n    {\"url_class\": " << url_class
        << ", \"requests\": " << c.requests
        << ", \"completed\": " << c.completed
        << ", \"breaches\": " << c.breaches << ", \"p50_ms\": ";
    write_json_number(out, percentile(c.lat_ms, 50));
    out << ", \"p95_ms\": ";
    write_json_number(out, percentile(c.lat_ms, 95));
    out << ", \"p99_ms\": ";
    write_json_number(out, percentile(c.lat_ms, 99));
    out << ", \"compliance\": ";
    write_json_number(out, 1.0 - breach_rate);
    out << ", \"burn_rate\": ";
    write_json_number(out, burn);
    out << '}';
  }
  if (!classes.empty()) out << "\n  ";
  out << "]}";
  return out.str();
}

/// The bundle's SLO section.
std::string slo_section(const FlightRecorder& flight) {
  std::ostringstream out;
  flight.write_json(out);
  const std::string json = out.str();
  const std::string open = "\"slo\": ";
  const auto from = json.find(open);
  const auto to = json.find(",\n  \"incidents\"");
  if (from == std::string::npos || to == std::string::npos) {
    throw std::runtime_error("bundle without an slo section");
  }
  return json.substr(from + open.size(), to - from - open.size());
}

TEST(FlightSlo, SectionMatchesSortedMapRollupOnARandomLog) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    SpanTracer spans;
    TraceRecorder trace;
    FlightConfig config;
    config.slo_latency_ms = 40.0;
    FlightRecorder flight(config, nullptr, &trace, &spans);
    const char* const outcomes[] = {"completed", "completed", "completed",
                                    "timeout", "rejected"};
    std::vector<std::uint64_t> open;
    std::uint64_t next_request = 1;
    Time now = 0;
    int checks = 0;
    for (int step = 0; step < 4000; ++step) {
      now += static_cast<Time>(rng() % 3) * 1000;
      const unsigned op = static_cast<unsigned>(rng() % 100);
      if (op < 40) {
        Span root;
        root.id = span_id_for(next_request++, SpanKind::kRequest);
        root.kind = SpanKind::kRequest;
        root.begin = now;
        // Few classes, many latency ties (whole milliseconds).
        root.url_class = static_cast<std::uint32_t>(rng() % 6) * 3;
        spans.begin(root);
        open.push_back(root.id);
      } else if (op < 80 && !open.empty()) {
        const std::size_t k = rng() % open.size();
        spans.end(open[k], now, outcomes[rng() % 5]);
        open[k] = open.back();
        open.pop_back();
      } else if (op < 85) {
        flight.dump_now(now, "probe");  // a capture advances the fold
      } else if (op < 88) {
        Forensics::build(spans, trace, now);
      } else if (op < 91) {
        EXPECT_EQ(slo_section(flight), reference_slo_json(spans, config))
            << "seed " << seed << " step " << step;
        ++checks;
      }
    }
    EXPECT_GT(checks, 50);
    EXPECT_GT(spans.forensics().watermark(), 0u);
    EXPECT_EQ(slo_section(flight), reference_slo_json(spans, config));
  }
}

TEST(FlightSlo, SectionMatchesSortedMapRollupOnAScenario) {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  scenario::run_scenario(config);
  ASSERT_GT(hub.flight()->incident_count(), 0u);
  const std::string want = reference_slo_json(*hub.spans(), FlightConfig{});
  EXPECT_NE(want.find("\"url_class\""), std::string::npos);
  EXPECT_EQ(slo_section(*hub.flight()), want);
  // The export's own fold does not change the section.
  Forensics::build(*hub.spans(), hub.trace(), config.duration);
  EXPECT_EQ(slo_section(*hub.flight()), want);
}

TEST(FlightSlo, NoSpansMeansNullSection) {
  TraceRecorder trace;
  FlightRecorder flight(FlightConfig{}, nullptr, &trace, nullptr);
  EXPECT_EQ(slo_section(flight), "null");
}

// ------------------------------------------------ post-mortem render

std::string scenario_bundle() {
  Hub hub = make_flight_hub();
  auto config = breaker_trip_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  scenario::run_scenario(config);
  std::ostringstream out;
  hub.flight()->write_json(out);
  return out.str();
}

TEST(Report, MarkdownRendersTimelineAndSloBurn) {
  const std::string bundle = scenario_bundle();
  std::ostringstream out;
  write_postmortem_markdown(out, bundle);
  const std::string md = out.str();
  EXPECT_NE(md.find("# DOPE incident post-mortem"), std::string::npos);
  EXPECT_NE(md.find("## SLO"), std::string::npos);
  EXPECT_NE(md.find("### Timeline"), std::string::npos);
  EXPECT_NE(md.find("### Pre-trigger signals"), std::string::npos);
  EXPECT_NE(md.find("### Attack attribution"), std::string::npos);
  EXPECT_NE(md.find("cluster.slot_demand_w"), std::string::npos);
  // Rendering is pure: same bundle, same bytes.
  std::ostringstream again;
  write_postmortem_markdown(again, bundle);
  EXPECT_EQ(md, again.str());
}

TEST(Report, JsonDigestRenders) {
  const std::string bundle = scenario_bundle();
  std::ostringstream out;
  write_postmortem_json(out, bundle);
  const std::string digest = out.str();
  EXPECT_NE(digest.find("\"dope_postmortem\""), std::string::npos);
  EXPECT_NE(digest.find("\"incidents\""), std::string::npos);
}

TEST(Report, MalformedBundleThrows) {
  std::ostringstream out;
  EXPECT_THROW(write_postmortem_markdown(out, "not json"),
               std::runtime_error);
  EXPECT_THROW(write_postmortem_json(out, "{\"wrong\": 1}"),
               std::runtime_error);
}

}  // namespace
}  // namespace dope::obs
