// End-to-end tests for request-lifecycle spans and per-source forensics.
//
// These run the golden attack scenario with spans attached and check its
// acceptance properties: span recording never perturbs the simulation,
// span ids are stable across reruns, the forensic ranking recovers the
// ground-truth botnet, attributed energy reconciles with the cluster's
// energy account, and the Chrome export carries paired per-slot duration
// tracks. The storage tests check the flat open-span table and the block
// span log against standard-container models.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "antidope/antidope.hpp"
#include "antidope/suspect_list.hpp"
#include "common/rng.hpp"
#include "obs/forensics.hpp"
#include "obs/hub.hpp"
#include "obs/span.hpp"
#include "power/dvfs.hpp"
#include "power/power_model.hpp"
#include "scenario/scenario.hpp"
#include "workload/catalog.hpp"

namespace dope::obs {
namespace {

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

Hub make_span_hub() { return Hub(HubConfig{.enable_spans = true}); }

// ------------------------------------------------ zero-perturbation

TEST(SpanScenario, AttachedSpansDoNotPerturbResults) {
  const auto plain = scenario::run_scenario(small_attack_scenario());

  Hub hub = make_span_hub();
  auto traced_config = small_attack_scenario();
  traced_config.obs = &hub;
  traced_config.default_alert_rules = true;
  const auto traced = scenario::run_scenario(traced_config);

  // Byte-identical simulation: every reported number matches exactly.
  EXPECT_EQ(plain.mean_ms, traced.mean_ms);
  EXPECT_EQ(plain.p50_ms, traced.p50_ms);
  EXPECT_EQ(plain.p99_ms, traced.p99_ms);
  EXPECT_EQ(plain.availability, traced.availability);
  EXPECT_EQ(plain.drop_fraction, traced.drop_fraction);
  EXPECT_EQ(plain.mean_power, traced.mean_power);
  EXPECT_EQ(plain.peak_power, traced.peak_power);
  EXPECT_EQ(plain.energy.utility, traced.energy.utility);
  EXPECT_EQ(plain.energy.battery, traced.energy.battery);
  EXPECT_EQ(plain.slot_stats.violation_slots,
            traced.slot_stats.violation_slots);
  ASSERT_EQ(plain.power_timeline.size(), traced.power_timeline.size());
  for (std::size_t i = 0; i < plain.power_timeline.size(); ++i) {
    EXPECT_EQ(plain.power_timeline[i].value,
              traced.power_timeline[i].value);
  }

  // And the tracer actually saw the run.
  ASSERT_NE(hub.spans(), nullptr);
  EXPECT_GT(hub.spans()->count(SpanKind::kRequest), 0u);
  EXPECT_GT(hub.spans()->count(SpanKind::kService), 0u);
}

TEST(SpanScenario, SpanIdsStableAcrossReruns) {
  Hub first_hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &first_hub;
  scenario::run_scenario(config);

  Hub second_hub = make_span_hub();
  config.obs = &second_hub;
  scenario::run_scenario(config);

  const auto& a = first_hub.spans()->spans();
  const auto& b = second_hub.spans()->spans();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].parent, b[i].parent);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_EQ(a[i].slot, b[i].slot);
  }
}

TEST(SpanScenario, SpanTreeIsCausallyConsistent) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  scenario::run_scenario(config);

  for (const auto& span : hub.spans()->spans()) {
    // Stage lives in the low id bits; children point at their root.
    EXPECT_EQ(span.id & 7u, static_cast<std::uint64_t>(span.kind));
    if (span.kind == SpanKind::kRequest) {
      EXPECT_EQ(span.parent, 0u);
    } else {
      EXPECT_EQ(span.parent, span.id & ~std::uint64_t{7});
    }
    if (span.kind == SpanKind::kService) {
      EXPECT_GE(span.server, 0);
      EXPECT_GE(span.slot, 0);
      EXPECT_GT(span.power_w, Watts{0.0});
    }
    if (!span.open()) {
      EXPECT_GE(span.end, span.begin);
    }
  }

  // Every terminal request got a root span; only in-flight ones stay
  // open at the horizon.
  EXPECT_GE(hub.spans()->count(SpanKind::kRequest), 1u);
  EXPECT_EQ(hub.spans()->unmatched_ends(), 0u);
}

// ------------------------------------------------ forensics rollup

TEST(SpanForensics, TopSuspectsAreGroundTruthAttackers) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);
  (void)result;

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  const auto top = forensics.top_by_joules(10);
  ASSERT_EQ(top.size(), 10u);

  // The DOPE botnet's sources start at 1'000'000; with the attack at 2x
  // the normal per-source heavy-blend rate, they dominate the energy
  // ranking — and their dominant URL classes are exactly the ones
  // Anti-DOPE's offline suspect list flags.
  const auto catalog = workload::Catalog::standard();
  const auto suspects = antidope::SuspectList::from_catalog(
      catalog, antidope::AntiDopeConfig{}.suspect_power_threshold);
  for (const auto& source : top) {
    EXPECT_GE(source.source_id, 1'000'000u) << source.source_id;
    EXPECT_TRUE(suspects.suspicious(source.dominant_class))
        << "class " << source.dominant_class;
    EXPECT_GT(source.requests, 0u);
    EXPECT_GT(source.joules, Joules{0.0});
    EXPECT_GT(source.occupancy_ms, 0.0);
  }
}

TEST(SpanForensics, TopSuspectOverlapsBudgetViolations) {
  // Without any power scheme the flood drives the cluster over budget,
  // so BudgetViolation instants land while attack requests occupy
  // slots — the forensic join must see those overlaps.
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.scheme = scenario::SchemeKind::kNone;
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);
  ASSERT_GT(result.slot_stats.violation_slots, 0u);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  EXPECT_EQ(forensics.violation_events(),
            result.slot_stats.violation_slots);
  const auto top = forensics.top_by_joules(5);
  ASSERT_FALSE(top.empty());
  EXPECT_GE(top.front().source_id, 1'000'000u);
  EXPECT_GT(top.front().violation_overlaps, 0u);
}

TEST(SpanForensics, JoulesReconcileWithEnergyAccount) {
  // Light normal-only load, no battery, no throttling: the cluster's
  // energy account is exactly idle draw + per-request active energy,
  // and the latter is what forensics attributes to sources.
  Hub hub = make_span_hub();
  scenario::ScenarioConfig config;
  config.scheme = scenario::SchemeKind::kNone;
  config.budget = power::BudgetLevel::kNormal;
  config.num_servers = 4;
  config.normal_rps = 40.0;
  config.attack_rps = 0.0;
  config.duration = 30 * kSecond;
  config.battery_runtime = 0;
  config.seed = 11;
  config.obs = &hub;
  const auto result = scenario::run_scenario(config);

  const auto forensics =
      Forensics::build(*hub.spans(), hub.trace(), config.duration);
  EXPECT_GT(forensics.total_joules(), Joules{0.0});

  const power::ServerPowerModel model(power::ServerPowerSpec{},
                                      power::DvfsLadder::make());
  const Joules idle{static_cast<double>(config.num_servers) *
                    model.idle_power(model.ladder().max_level()).value() *
                    to_seconds(config.duration)};
  const Joules expected = idle + forensics.total_joules();
  EXPECT_NEAR(result.energy.load_total().value(), expected.value(),
              1e-3 * result.energy.load_total().value());
}

// ------------------------------------------------ exports

TEST(SpanExport, ChromeTraceHasPairedSlotTracks) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  scenario::run_scenario(config);

  std::ostringstream out;
  hub.write_chrome_trace(out);
  const std::string trace = out.str();

  // Per-slot duration events on the server-slots process, async request
  // lanes, and the process metadata naming both.
  EXPECT_NE(trace.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(trace.find("server slots"), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"service c"), std::string::npos);
}

TEST(SpanExport, ScenarioTraceCapMarksTruncation) {
  Hub hub = make_span_hub();
  auto config = small_attack_scenario();
  config.obs = &hub;
  config.trace_cap = 64;
  scenario::run_scenario(config);

  EXPECT_EQ(hub.trace().events().size(), 64u);
  EXPECT_GT(hub.trace().dropped(), 0u);
  std::ostringstream out;
  hub.write_trace_jsonl(out);
  EXPECT_NE(out.str().find("\"type\": \"TraceTruncated\""),
            std::string::npos);
}

// ------------------------------------------------ attack-rate watchdog

TEST(SpanWatchdog, DefaultAttackRateRuleFiresDuringFlood) {
  Hub hub;
  auto config = small_attack_scenario();
  config.obs = &hub;
  config.default_alert_rules = true;
  scenario::run_scenario(config);

  bool saw_attack_rate = false;
  for (const auto& alert : hub.watchdog().alerts()) {
    if (alert.rule == "attack-rate") saw_attack_rate = true;
  }
  EXPECT_TRUE(saw_attack_rate);
  EXPECT_GT(hub.trace().count(EventType::kAlertRaised), 0u);
}

// ------------------------------------------------ span storage

TEST(FlatIndex, MatchesUnorderedMapAcrossRehashes) {
  // Random assign / insert / take against std::unordered_map.
  // The key pool is wide enough that the live set passes several
  // doublings (16 -> 8192 slots), and narrow enough that keys recur.
  Rng rng(20261018);
  FlatIndex index;
  std::unordered_map<std::uint64_t, std::size_t> model;
  const auto key_of = [&rng] {
    // Span-id shaped keys: a request id in the high bits, a stage low.
    return ((rng() % 6000) << 3) | (rng() % 5);
  };
  for (int step = 0; step < 200'000; ++step) {
    const std::uint64_t key = key_of();
    const std::size_t value = rng() % 1'000'000;
    // Grow for the first half, then shrink back through the same sizes.
    const unsigned op = static_cast<unsigned>(rng() % 10);
    const bool growing = step < 100'000;
    if (op < (growing ? 4u : 2u)) {
      index.assign(key, value);
      model[key] = value;
    } else if (op < (growing ? 7u : 4u)) {
      const auto [it, fresh] = model.emplace(key, value);
      (void)fresh;
      ASSERT_EQ(index.insert(key, value), it->second);
    } else {
      const auto it = model.find(key);
      const std::size_t expected =
          it == model.end() ? FlatIndex::kNone : it->second;
      if (it != model.end()) model.erase(it);
      ASSERT_EQ(index.take(key), expected) << "step " << step;
    }
    ASSERT_EQ(index.size(), model.size()) << "step " << step;
  }
  // dope-lint: allow(unordered-iter) — each key is checked on its own
  for (const auto& [key, value] : model) {
    ASSERT_EQ(index.take(key), value);
  }
  EXPECT_EQ(index.size(), 0u);
}

/// The tracer as it was before the flat table: an unordered_map open
/// table over a plain vector log.
struct ModelTracer {
  explicit ModelTracer(std::size_t max_spans) : cap(max_spans) {}

  std::size_t cap;
  std::vector<Span> spans;
  std::unordered_map<std::uint64_t, std::size_t> open;
  std::uint64_t recorded = 0;
  std::uint64_t unmatched = 0;

  void begin(Span span) {
    ++recorded;
    if (spans.size() >= cap) return;
    span.end = -1;
    open[span.id] = spans.size();
    spans.push_back(span);
  }
  void end(std::uint64_t id, Time t, const char* outcome) {
    const auto it = open.find(id);
    if (it == open.end()) {
      ++unmatched;
      return;
    }
    spans[it->second].end = t;
    spans[it->second].outcome = outcome;
    open.erase(it);
  }
  void instant(Span span, Time t) {
    ++recorded;
    if (spans.size() >= cap) return;
    span.begin = t;
    span.end = t;
    spans.push_back(span);
  }
};

void run_open_table_differential(std::uint64_t seed, std::size_t cap) {
  Rng rng(seed);
  SpanTracer tracer(SpanConfig{.max_spans = cap});
  ModelTracer model(cap);
  const char* const outcomes[] = {"completed", "timeout", "rejected"};
  Time now = 0;
  std::size_t peak_open = 0;
  for (int step = 0; step < 60'000; ++step) {
    now += static_cast<Time>(rng() % 3);
    // Ids come from a pool of 4000 requests x 5 stages, so begins of a
    // still-open id (re-begin), ends of never-begun or already-closed
    // ids (unmatched) and ids begun past the cap all occur. The first
    // third mostly opens, driving the table through several doublings.
    Span span;
    span.kind = static_cast<SpanKind>(rng() % kSpanKindCount);
    span.id = span_id_for(rng() % 4000, span.kind);
    span.begin = now;
    const unsigned op = static_cast<unsigned>(rng() % 10);
    if (op < (step < 20'000 ? 8u : 4u)) {
      tracer.begin(span);
      model.begin(span);
    } else if (op < 9) {
      const char* outcome = outcomes[rng() % 3];
      tracer.end(span.id, now, outcome);
      model.end(span.id, now, outcome);
    } else {
      tracer.instant(span, now);
      model.instant(span, now);
    }
    ASSERT_EQ(tracer.open_count(), model.open.size()) << "step " << step;
    ASSERT_EQ(tracer.unmatched_ends(), model.unmatched);
    ASSERT_EQ(tracer.recorded(), model.recorded);
    ASSERT_EQ(tracer.spans().size(), model.spans.size());
    peak_open = std::max(peak_open, model.open.size());
  }
  if (cap > 10'000) {
    EXPECT_GT(peak_open, 4096u);  // at least 9 doublings from 16 slots
  }
  ASSERT_EQ(tracer.dropped(), model.recorded - model.spans.size());
  for (std::size_t i = 0; i < model.spans.size(); ++i) {
    const Span& got = tracer.spans()[i];
    const Span& want = model.spans[i];
    ASSERT_EQ(got.id, want.id) << i;
    ASSERT_EQ(got.begin, want.begin) << i;
    ASSERT_EQ(got.end, want.end) << i;
    ASSERT_EQ(std::string(got.outcome), std::string(want.outcome)) << i;
  }
}

TEST(SpanTracer, OpenTableMatchesUnorderedMapModel) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_open_table_differential(seed, 1'000'000);
  }
}

TEST(SpanTracer, OpenTableMatchesModelPastTheCap) {
  // Begins past the cap are never stored, so their ends are unmatched.
  run_open_table_differential(7, 5'000);
}

TEST(SpanLog, IndexingAndIterationAcrossBlockBoundaries) {
  constexpr std::size_t kBlock = SpanLog::kBlockSpans;
  static_assert(kBlock == std::size_t{1} << 14);
  SpanLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.begin(), log.end());
  const Span* first_block_last = nullptr;
  for (std::size_t i = 0; i <= 2 * kBlock; ++i) {
    Span span;
    span.id = i;
    log.push_back(span);
    if (i == kBlock - 1) first_block_last = &log[i];
  }
  ASSERT_EQ(log.size(), 2 * kBlock + 1);
  // Appending never moves a stored span.
  EXPECT_EQ(first_block_last, &log[kBlock - 1]);
  for (const std::size_t i : {std::size_t{0}, kBlock - 1, kBlock,
                              kBlock + 1, 2 * kBlock - 1, 2 * kBlock}) {
    EXPECT_EQ(log[i].id, i);
  }
  std::size_t expected = 0;
  for (const Span& span : log) {
    ASSERT_EQ(span.id, expected);
    ++expected;
  }
  EXPECT_EQ(expected, log.size());
  auto it = log.begin();
  for (std::size_t i = 0; i < kBlock; ++i) ++it;
  EXPECT_EQ(it->id, kBlock);
  EXPECT_EQ((++it)->id, kBlock + 1);

  // The tracer's log crosses the same boundaries.
  SpanTracer tracer;
  for (std::size_t i = 0; i < kBlock + 1; ++i) {
    Span span;
    span.id = span_id_for(i, SpanKind::kRequest);
    tracer.begin(span);
  }
  tracer.end(span_id_for(kBlock - 1, SpanKind::kRequest), 5, "completed");
  tracer.end(span_id_for(kBlock, SpanKind::kRequest), 6, "completed");
  EXPECT_EQ(tracer.spans()[kBlock - 1].end, 5);
  EXPECT_EQ(tracer.spans()[kBlock].end, 6);
  EXPECT_EQ(tracer.open_count(), kBlock - 1);
}

}  // namespace
}  // namespace dope::obs
