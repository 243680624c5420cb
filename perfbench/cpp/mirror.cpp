#include "mirror.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc_count.hpp"
#include "common/expect.hpp"
#include "obs/flight.hpp"
#include "obs/hub.hpp"
#include "obs/timeseries.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace dopebench {

namespace {

using namespace dope;

enum class StepKind { kOther, kArrival, kSlot, kLevelProbe, kTimelineProbe };

/// Clock, per-step scratch state and the accumulating LayerTrace.
class Tracer {
 public:
  struct Mark {
    std::int64_t t;
    std::uint64_t reads;
  };

  Tracer() { trace.clock_ns = calibrate(); }

  Mark open() {
    const std::int64_t t = read();
    return {t, reads_};
  }
  /// Duration since `m`, net of the clock reads made in between.
  double close(const Mark& m) {
    const std::int64_t t = read();
    const std::uint64_t inner = reads_ - m.reads - 1;
    return static_cast<double>(t - m.t) -
           static_cast<double>(inner + 1) * trace.clock_ns;
  }

  template <typename T>
  static void push(std::vector<T>& v, T x) {
    if (v.size() == v.capacity()) {
      alloc::Pause pause;  // the benchmark's buffers are not the program's
      v.reserve(std::max<std::size_t>(1024, 2 * v.capacity()));
    }
    v.push_back(x);
  }

  /// Wall time since `m`, clock reads included.
  double elapsed(const Mark& m) {
    return static_cast<double>(read() - m.t);
  }

  std::uint64_t reads() const { return reads_; }

  LayerTrace trace;
  StepKind kind = StepKind::kOther;
  double boundary_ns = 0.0;  // wrapped-boundary time inside this step

 private:
  static std::int64_t raw_now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::int64_t read() {
    ++reads_;
    return raw_now();
  }
  /// Cost of one read: the cheapest of 20 batches, since interference
  /// only ever adds to a batch.
  static double calibrate() {
    constexpr int kReads = 10000;
    double best = 1e9;
    for (int batch = 0; batch < 20; ++batch) {
      const std::int64_t t0 = raw_now();
      std::int64_t t = t0;
      for (int i = 0; i < kReads; ++i) t = raw_now();
      best = std::min(best, static_cast<double>(t - t0) / kReads);
    }
    return best;
  }

  std::uint64_t reads_ = 0;
};

/// Times the wrapped scheme's three plug points.
class TimedStage final : public cluster::ControlStage {
 public:
  TimedStage(std::unique_ptr<cluster::ControlStage> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void attach(cluster::Cluster& cluster) override {
    ControlStage::attach(cluster);
    inner_->attach(cluster);
  }
  void detach() override {
    inner_->detach();
    ControlStage::detach();
  }
  bool admit(const workload::Request& request) override {
    const auto m = tracer_.open();
    const bool ok = inner_->admit(request);
    ++tracer_.trace.control_reqs;
    tracer_.trace.control_req_ns += tracer_.close(m);
    return ok;
  }
  net::Backend* route(const workload::Request& request) override {
    const auto m = tracer_.open();
    net::Backend* backend = inner_->route(request);
    tracer_.trace.control_req_ns += tracer_.close(m);
    return backend;
  }
  void on_slot(Time now, Duration slot) override {
    const auto m = tracer_.open();
    inner_->on_slot(now, slot);
    const double ns = tracer_.close(m);
    LayerTrace& t = tracer_.trace;
    t.on_slot_ns += ns;
    Tracer::push(t.on_slot_samples, static_cast<float>(ns));
    tracer_.kind = StepKind::kSlot;
    tracer_.boundary_ns += ns;
  }

 private:
  std::unique_ptr<cluster::ControlStage> inner_;
  Tracer& tracer_;
};

std::unique_ptr<cluster::ControlStage> timed_scheme(
    const scenario::ScenarioConfig& config, Tracer& tracer) {
  return std::make_unique<TimedStage>(
      scenario::make_scheme(config.scheme, config.antidope), tracer);
}

/// Sink wrapper body shared by the cluster and site entry points.
template <typename Ingest>
void timed_ingest(Tracer& tr, bool site, Ingest&& ingest) {
  const double control_before = tr.trace.control_req_ns;
  const auto m = tr.open();
  ingest();
  const double ns = tr.close(m);
  const double self = ns - (tr.trace.control_req_ns - control_before);
  LayerTrace& t = tr.trace;
  if (site) {
    t.site_ingest_ns += ns;
    t.site_ingest_self_ns += self;
    Tracer::push(t.site_ingest_samples, static_cast<float>(ns));
  } else {
    t.cluster_ingest_ns += ns;
    t.cluster_ingest_self_ns += self;
    Tracer::push(t.cluster_ingest_samples, static_cast<float>(ns));
  }
  tr.kind = StepKind::kArrival;
  tr.boundary_ns += ns;
}

void require_supported(const scenario::ScenarioConfig& config) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument(std::string("mirror does not support ") +
                                  what);
    }
  };
  DOPE_REQUIRE(config.duration > 0, "scenario duration must be positive");
  DOPE_REQUIRE(config.num_zones >= 1, "scenario needs at least one zone");
  require(config.node_outages.empty(), "node outages");
  require(config.normal_rate_plan.empty() && config.attack_rate_plan.empty(),
          "rate plans");
  require(config.dump_incident_at < 0, "forced incident dumps");
  require(config.alert_raise_windows == 0 && config.alert_clear_windows == 0,
          "hysteresis overrides");
  require(config.num_zones == 1 || config.obs == nullptr,
          "an obs hub on a multi-zone site");
}

/// run_scenario's obs set-up: trace cap and flight-recorder context.
void configure_obs(const scenario::ScenarioConfig& config) {
  obs::Hub* hub = config.obs;
  if (hub == nullptr) return;
  if (config.trace_cap > 0) hub->trace().set_max_events(config.trace_cap);
  obs::FlightRecorder* flight = hub->flight();
  if (flight == nullptr) return;
  obs::FlightRunContext ctx;
  ctx.seed = config.seed;
  ctx.scheme = scenario::scheme_name(config.scheme);
  ctx.slot = config.slot;
  ctx.duration = config.duration;
  ctx.label = config.run_label;
  flight->set_run_context(std::move(ctx));
  if (config.scheme == scenario::SchemeKind::kAntiDope) {
    const auto catalog = workload::Catalog::standard();
    const antidope::SuspectList list =
        config.antidope.suspect_list.has_value()
            ? *config.antidope.suspect_list
            : antidope::SuspectList::from_catalog(
                  catalog, config.antidope.suspect_power_threshold);
    std::vector<std::uint32_t> classes;
    for (std::size_t t = 0; t < list.size(); ++t) {
      if (list.suspicious(static_cast<workload::RequestTypeId>(t))) {
        classes.push_back(static_cast<std::uint32_t>(t));
      }
    }
    flight->set_suspect_classes(std::move(classes));
  }
}

void add_cluster_alert_rules(const scenario::ScenarioConfig& config,
                             cluster::Cluster& cluster) {
  auto& dog = config.obs->watchdog();
  dog.add_rule({.name = "budget-violated",
                .signal = cluster::Cluster::kSignalSlotDemand,
                .cmp = obs::AlertCmp::kAbove,
                .threshold = cluster.budget().value(),
                .consecutive = 5,
                .clear_after = 5});
  dog.add_rule({.name = "utility-over-budget",
                .signal = cluster::Cluster::kSignalUtility,
                .cmp = obs::AlertCmp::kAbove,
                .threshold = cluster.budget().value(),
                .consecutive = 3,
                .clear_after = 3});
  if (cluster.battery() != nullptr) {
    dog.add_rule({.name = "battery-low",
                  .signal = cluster::Cluster::kSignalBatterySoc,
                  .cmp = obs::AlertCmp::kBelow,
                  .threshold = 0.25,
                  .consecutive = 1,
                  .clear_after = 3});
  }
  if (config.attack_rps > 0.0) {
    dog.add_rule({.name = "attack-rate",
                  .signal = scenario::kSignalAttackRate,
                  .cmp = obs::AlertCmp::kAbove,
                  .threshold = 0.5 * config.attack_rps,
                  .consecutive = 3,
                  .clear_after = 3});
  }
}

std::unique_ptr<workload::TrafficGenerator> make_normal(
    sim::Engine& engine, const workload::Catalog& catalog,
    const scenario::ScenarioConfig& config, workload::RequestSink sink) {
  if (!(config.normal_rps > 0.0)) return nullptr;
  workload::GeneratorConfig gen;
  gen.name = "normal";
  gen.mixture =
      config.normal_mixture.value_or(workload::Mixture::alios_normal());
  gen.rate_rps = config.normal_rps;
  gen.num_sources = config.normal_sources;
  gen.source_base = 0;
  gen.seed = config.seed * 2 + 1;
  return std::make_unique<workload::TrafficGenerator>(engine, catalog, gen,
                                                      std::move(sink));
}

std::unique_ptr<workload::TrafficGenerator> make_attack(
    sim::Engine& engine, const workload::Catalog& catalog,
    const scenario::ScenarioConfig& config, workload::RequestSink sink) {
  if (!(config.attack_rps > 0.0)) return nullptr;
  workload::GeneratorConfig gen;
  gen.name = "attack";
  gen.mixture = config.attack_mixture.value_or(
      workload::Mixture::single(workload::Catalog::kKMeans));
  gen.rate_rps = config.attack_rps;
  gen.num_sources = config.attack_agents;
  gen.source_base = 1'000'000;
  gen.start = config.attack_start;
  gen.stop = config.attack_stop;
  gen.ground_truth_attack = true;
  gen.seed = config.seed * 2 + 2;
  return std::make_unique<workload::TrafficGenerator>(engine, catalog, gen,
                                                      std::move(sink));
}

/// The zones the run built: one standalone cluster or a site's zones.
struct Fleet {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<site::Site> site;

  std::size_t size() const { return site ? site->num_zones() : 1; }
  cluster::Cluster& zone(std::size_t z) {
    return site ? site->zone(z) : *cluster;
  }
};

/// State the per-slot level probe reads and writes (run_scenario's
/// SlotProbe / SiteProbe).
struct LevelProbe {
  Fleet* fleet = nullptr;
  sim::Engine* engine = nullptr;
  Tracer* tracer = nullptr;
  std::vector<std::size_t> min_level;
  workload::TrafficGenerator* attack_gen = nullptr;
  obs::Watchdog* dog = nullptr;
  obs::Series* attack_series = nullptr;
  double slot_seconds = 1.0;
  std::uint64_t prev_generated = 0;
  bool fired = false;

  void fire() {
    const auto m = tracer->open();
    for (std::size_t z = 0; z < fleet->size(); ++z) {
      for (auto* n : fleet->zone(z).servers()) {
        min_level[z] = std::min(min_level[z], n->level());
      }
    }
    if (attack_gen != nullptr) {
      const std::uint64_t generated = attack_gen->generated();
      const double rate =
          static_cast<double>(generated - prev_generated) / slot_seconds;
      dog->observe(scenario::kSignalAttackRate, engine->now(), rate);
      if (attack_series != nullptr) {
        attack_series->sample(engine->now(), rate);
      }
      prev_generated = generated;
    }
    tracer->kind = StepKind::kLevelProbe;
    tracer->boundary_ns += tracer->close(m);
    fired = true;
  }
};

/// Timeline probe body: the site-wide power or mean battery SoC.
struct TimelineProbe {
  Fleet* fleet = nullptr;
  Tracer* tracer = nullptr;

  double power() {
    tracer->kind = StepKind::kTimelineProbe;
    Watts total{0.0};
    for (std::size_t z = 0; z < fleet->size(); ++z) {
      total += fleet->zone(z).total_power();
    }
    return total.value();
  }
  double soc() {
    tracer->kind = StepKind::kTimelineProbe;
    double soc = 0.0;
    std::size_t n = 0;
    for (std::size_t z = 0; z < fleet->size(); ++z) {
      if (const auto* b = fleet->zone(z).battery()) {
        soc += b->soc();
        ++n;
      }
    }
    return n == 0 ? 0.0 : soc / static_cast<double>(n);
  }
};

/// One engine step, timed and filed under the boundaries it reached.
void timed_step(sim::Engine& engine, Tracer& tr) {
  tr.kind = StepKind::kOther;
  tr.boundary_ns = 0.0;
  const auto m = tr.open();
  engine.step();
  const double ns = tr.close(m);
  LayerTrace& t = tr.trace;
  switch (tr.kind) {
    case StepKind::kArrival:
      ++t.arrival_steps;
      t.arrival_self_ns += ns - tr.boundary_ns;
      break;
    case StepKind::kSlot:
      ++t.slot_steps;
      t.power_slot_ns += ns - tr.boundary_ns;
      break;
    case StepKind::kLevelProbe:
      ++t.level_steps;
      t.level_engine_ns += ns - tr.boundary_ns;
      t.probe_ns += ns;
      break;
    case StepKind::kTimelineProbe:
      t.probe_ns += ns;
      break;
    case StepKind::kOther:
      ++t.other_steps;
      t.other_ns += ns;
      break;
  }
}

void summarise_cluster(cluster::Cluster& cluster,
                       const metrics::TimelineRecorder& power_probe,
                       const metrics::TimelineRecorder* soc_probe,
                       const LevelProbe& probe,
                       scenario::ScenarioResult& result) {
  result.budget = cluster.budget();
  const auto& metrics = cluster.request_metrics();
  const auto& latency = metrics.normal_latency_ms();
  result.mean_ms = latency.mean();
  result.p50_ms = latency.percentile(50);
  result.p90_ms = latency.percentile(90);
  result.p95_ms = latency.percentile(95);
  result.p99_ms = latency.percentile(99);
  result.min_ms = latency.min();
  result.max_ms = latency.max();
  result.availability = metrics.availability();
  result.drop_fraction = metrics.drop_fraction();
  result.normal_counts = metrics.normal_counts();
  result.attack_counts = metrics.attack_counts();
  result.attack_mean_ms = metrics.attack_latency_ms().mean();

  result.mean_power = Watts{power_probe.stats().mean()};
  result.peak_power = Watts{power_probe.stats().max()};
  result.power_timeline = power_probe.samples();
  result.power_samples_normalized.reserve(power_probe.samples().size());
  const Watts nameplate = cluster.total_nameplate();
  for (const auto& s : power_probe.samples()) {
    result.power_samples_normalized.push_back(Watts{s.value} / nameplate);
  }
  if (soc_probe != nullptr) {
    result.battery_soc_timeline = soc_probe->samples();
  }
  if (cluster.battery() != nullptr) {
    result.battery_discharged = cluster.battery()->total_discharged();
  }
  result.energy = cluster.energy_account();
  result.slot_stats = cluster.slot_stats();

  GHz freq_sum{0.0};
  for (auto* n : cluster.servers()) {
    freq_sum += cluster.ladder().frequency(n->level());
  }
  result.final_mean_frequency =
      freq_sum / static_cast<double>(cluster.num_servers());
  result.min_level_seen = probe.min_level[0];
}

void summarise_site(site::Site& site,
                    const metrics::TimelineRecorder& power_probe,
                    const metrics::TimelineRecorder* soc_probe,
                    const LevelProbe& probe,
                    scenario::ScenarioResult& result) {
  result.budget = site.facility_budget();
  const auto& metrics = site.request_metrics();
  const auto& latency = metrics.normal_latency_ms();
  result.mean_ms = latency.mean();
  result.p50_ms = latency.percentile(50);
  result.p90_ms = latency.percentile(90);
  result.p95_ms = latency.percentile(95);
  result.p99_ms = latency.percentile(99);
  result.min_ms = latency.min();
  result.max_ms = latency.max();
  result.availability = metrics.availability();
  result.drop_fraction = metrics.drop_fraction();
  result.normal_counts = metrics.normal_counts();
  result.attack_counts = metrics.attack_counts();
  result.attack_mean_ms = metrics.attack_latency_ms().mean();

  result.mean_power = Watts{power_probe.stats().mean()};
  result.peak_power = Watts{power_probe.stats().max()};
  result.power_timeline = power_probe.samples();
  Watts nameplate{0.0};
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    nameplate += site.zone(z).total_nameplate();
  }
  result.power_samples_normalized.reserve(power_probe.samples().size());
  for (const auto& s : power_probe.samples()) {
    result.power_samples_normalized.push_back(Watts{s.value} / nameplate);
  }
  if (soc_probe != nullptr) {
    result.battery_soc_timeline = soc_probe->samples();
  }

  result.energy = site.aggregate_energy();
  result.zones.reserve(site.num_zones());
  GHz freq_sum{0.0};
  std::size_t total_servers = 0;
  result.min_level_seen = site.zone(0).ladder().max_level();
  for (std::size_t z = 0; z < site.num_zones(); ++z) {
    cluster::Cluster& zone = site.zone(z);
    if (zone.battery() != nullptr) {
      result.battery_discharged += zone.battery()->total_discharged();
    }
    const auto& stats = zone.slot_stats();
    result.slot_stats.slots = std::max(result.slot_stats.slots, stats.slots);
    result.slot_stats.violation_slots += stats.violation_slots;
    result.slot_stats.utility_violation_slots +=
        stats.utility_violation_slots;
    result.slot_stats.worst_overshoot =
        std::max(result.slot_stats.worst_overshoot, stats.worst_overshoot);
    result.slot_stats.outages += stats.outages;
    result.slot_stats.downtime += stats.downtime;

    scenario::ZoneBreakdown breakdown;
    breakdown.budget = site.zone_budgets()[z];
    breakdown.availability = zone.request_metrics().availability();
    breakdown.normal_counts = zone.request_metrics().normal_counts();
    breakdown.violation_slots = stats.violation_slots;
    breakdown.min_level_seen = probe.min_level[z];
    breakdown.load_energy = zone.energy_account().load_total();
    GHz zone_freq{0.0};
    for (auto* n : zone.servers()) {
      zone_freq += zone.ladder().frequency(n->level());
    }
    breakdown.final_mean_frequency =
        zone_freq / static_cast<double>(zone.num_servers());
    result.zones.push_back(breakdown);

    freq_sum += zone_freq;
    total_servers += zone.num_servers();
    result.min_level_seen = std::min(result.min_level_seen, probe.min_level[z]);
  }
  result.final_mean_frequency =
      freq_sum / static_cast<double>(total_servers);
}

}  // namespace

void LayerTrace::merge(const LayerTrace& o) {
  const auto reads = static_cast<double>(clock_reads + o.clock_reads);
  if (reads > 0.0) {
    clock_ns = (clock_ns * static_cast<double>(clock_reads) +
                o.clock_ns * static_cast<double>(o.clock_reads)) /
               reads;
  }
  clock_reads += o.clock_reads;
  total_ns += o.total_ns;
  setup_ns += o.setup_ns;
  tail_ns += o.tail_ns;
  summary_ns += o.summary_ns;
  export_ns += o.export_ns;
  arrival_steps += o.arrival_steps;
  arrival_self_ns += o.arrival_self_ns;
  slot_steps += o.slot_steps;
  power_slot_ns += o.power_slot_ns;
  level_steps += o.level_steps;
  level_engine_ns += o.level_engine_ns;
  probe_ns += o.probe_ns;
  other_steps += o.other_steps;
  other_ns += o.other_ns;
  cluster_ingest_ns += o.cluster_ingest_ns;
  cluster_ingest_self_ns += o.cluster_ingest_self_ns;
  site_ingest_ns += o.site_ingest_ns;
  site_ingest_self_ns += o.site_ingest_self_ns;
  control_reqs += o.control_reqs;
  control_req_ns += o.control_req_ns;
  on_slot_ns += o.on_slot_ns;
  alloc_setup += o.alloc_setup;
  alloc_steady += o.alloc_steady;
  const auto append = [](std::vector<float>& to,
                         const std::vector<float>& from) {
    alloc::Pause pause;
    to.insert(to.end(), from.begin(), from.end());
  };
  append(cluster_ingest_samples, o.cluster_ingest_samples);
  append(site_ingest_samples, o.site_ingest_samples);
  append(on_slot_samples, o.on_slot_samples);
  append(slot_host_ms, o.slot_host_ms);
}

MirrorRun run_mirror(const scenario::ScenarioConfig& config,
                     const std::string& export_dir) {
  require_supported(config);
  MirrorRun out;
  Tracer tr;
  LayerTrace& t = tr.trace;
  const auto run_mark = tr.open();
  const auto setup_mark = tr.open();
  const std::uint64_t alloc_start = alloc::count();

  sim::Engine engine;
  engine.set_obs(config.obs);  // before any component construction
  configure_obs(config);
  const auto catalog = workload::Catalog::standard();

  Fleet fleet;
  workload::RequestSink normal_sink;
  workload::RequestSink attack_sink;
  if (config.num_zones > 1) {
    DOPE_REQUIRE(config.zone_weights.empty() ||
                     config.zone_weights.size() == config.num_zones,
                 "zone_weights must be empty or match num_zones");
    DOPE_REQUIRE(config.attack_zone < static_cast<int>(config.num_zones),
                 "attack_zone outside the site");
    site::SiteConfig sc;
    sc.zones.reserve(config.num_zones);
    for (std::size_t z = 0; z < config.num_zones; ++z) {
      site::ZoneConfig zone;
      zone.cluster.num_servers = config.num_servers;
      zone.cluster.budget_level = config.budget;
      zone.cluster.battery_runtime = config.battery_runtime;
      zone.cluster.firewall = config.firewall;
      zone.cluster.breaker = config.breaker;
      zone.cluster.slot = config.slot;
      if (!config.zone_weights.empty()) zone.weight = config.zone_weights[z];
      sc.zones.push_back(std::move(zone));
    }
    sc.facility_budget = config.budget_override;
    sc.divider = config.site_divider;
    sc.policy = config.glb_policy;
    sc.reapportion_period = config.reapportion_period;
    fleet.site = std::make_unique<site::Site>(engine, catalog, sc);
    for (std::size_t z = 0; z < fleet.size(); ++z) {
      fleet.zone(z).install_scheme(timed_scheme(config, tr));
    }
    site::Site* s = fleet.site.get();
    normal_sink = [s, &tr](workload::Request&& r) {
      timed_ingest(tr, true, [&] { s->ingest(std::move(r)); });
    };
    if (config.attack_zone >= 0) {
      cluster::Cluster* c =
          &s->zone(static_cast<std::size_t>(config.attack_zone));
      attack_sink = [c, &tr](workload::Request&& r) {
        timed_ingest(tr, false, [&] { c->ingest(std::move(r)); });
      };
    } else {
      attack_sink = [s, &tr](workload::Request&& r) {
        timed_ingest(tr, true, [&] { s->ingest(std::move(r)); });
      };
    }
  } else {
    cluster::ClusterConfig cc;
    cc.num_servers = config.num_servers;
    cc.budget_level = config.budget;
    cc.budget_override = config.budget_override;
    cc.battery_runtime = config.battery_runtime;
    cc.firewall = config.firewall;
    cc.breaker = config.breaker;
    cc.slot = config.slot;
    fleet.cluster = std::make_unique<cluster::Cluster>(engine, catalog, cc);
    fleet.cluster->install_scheme(timed_scheme(config, tr));
    if (config.obs != nullptr && config.default_alert_rules) {
      add_cluster_alert_rules(config, *fleet.cluster);
    }
    cluster::Cluster* c = fleet.cluster.get();
    normal_sink = [c, &tr](workload::Request&& r) {
      timed_ingest(tr, false, [&] { c->ingest(std::move(r)); });
    };
    attack_sink = [c, &tr](workload::Request&& r) {
      timed_ingest(tr, false, [&] { c->ingest(std::move(r)); });
    };
  }

  auto normal = make_normal(engine, catalog, config, std::move(normal_sink));
  auto attack = make_attack(engine, catalog, config, std::move(attack_sink));

  TimelineProbe timeline{&fleet, &tr};
  metrics::TimelineRecorder power_probe(
      engine, config.power_sample_interval,
      [p = &timeline] { return p->power(); });
  bool any_battery = false;
  for (std::size_t z = 0; z < fleet.size(); ++z) {
    if (fleet.zone(z).battery() != nullptr) any_battery = true;
  }
  std::unique_ptr<metrics::TimelineRecorder> soc_probe;
  if (any_battery) {
    soc_probe = std::make_unique<metrics::TimelineRecorder>(
        engine, config.power_sample_interval,
        [p = &timeline] { return p->soc(); });
  }

  LevelProbe probe;
  probe.fleet = &fleet;
  probe.engine = &engine;
  probe.tracer = &tr;
  probe.min_level.assign(fleet.size(), fleet.zone(0).ladder().max_level());
  if (config.obs != nullptr && attack != nullptr) {
    probe.attack_gen = attack.get();
    probe.dog = &config.obs->watchdog();
    probe.slot_seconds = to_seconds(config.slot);
    if (auto* ts = config.obs->timeseries()) {
      probe.attack_series = &ts->series(scenario::kSignalAttackRate);
    }
  }
  auto level_probe =
      engine.every(config.slot, [p = &probe] { p->fire(); });
  t.setup_ns = tr.close(setup_mark);
  const std::uint64_t alloc_stepping = alloc::count();
  t.alloc_setup = alloc_stepping - alloc_start;

  // Step one event at a time; the level probe closes each slot.
  for (Time boundary = config.slot; boundary <= config.duration;
       boundary += config.slot) {
    const auto slot_mark = tr.open();
    probe.fired = false;
    while (!probe.fired) timed_step(engine, tr);
    Tracer::push(t.slot_host_ms,
                 static_cast<float>(tr.close(slot_mark) / 1e6));
  }
  const auto tail_mark = tr.open();
  engine.run_until(config.duration);
  level_probe.stop();
  t.tail_ns = tr.close(tail_mark);
  t.alloc_steady = alloc::count() - alloc_stepping;

  const auto summary_mark = tr.open();
  out.result.scheme = scenario::scheme_name(config.scheme);
  if (fleet.site) {
    summarise_site(*fleet.site, power_probe, soc_probe.get(), probe,
                   out.result);
  } else {
    summarise_cluster(*fleet.cluster, power_probe, soc_probe.get(), probe,
                      out.result);
  }
  t.summary_ns = tr.close(summary_mark);

  if (config.obs != nullptr && !export_dir.empty()) {
    const auto export_mark = tr.open();
    write_obs_outputs(*config.obs, config, export_dir);
    t.export_ns = tr.close(export_mark);
  }

  // Accounting read-outs for the invariant checks (untimed).
  out.generated = (normal ? normal->generated() : 0) +
                  (attack ? attack->generated() : 0);
  out.terminal = out.result.normal_counts.terminal() +
                 out.result.attack_counts.terminal();
  for (std::size_t z = 0; z < fleet.size(); ++z) {
    for (auto* n : fleet.zone(z).servers()) {
      out.in_flight += n->queue_length() + n->active_count();
      out.server_energy_j += n->energy().value();
    }
  }
  out.events = engine.executed();
  out.pool_slots = engine.event_pool_size();
  t.total_ns = tr.elapsed(run_mark);
  t.clock_reads = tr.reads();
  out.trace = std::move(t);
  return out;
}

}  // namespace dopebench
