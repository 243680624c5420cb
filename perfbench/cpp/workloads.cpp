#include "workloads.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/forensics.hpp"

namespace dopebench {

using dope::Duration;
using dope::kMinute;
using dope::kSecond;
using dope::Watts;
using dope::power::BudgetLevel;
using dope::scenario::ScenarioConfig;
using dope::scenario::SchemeKind;
using dope::workload::Catalog;
using dope::workload::Mixture;

namespace {

/// The paper's injected malicious blend (Colla-Filt + K-means +
/// Word-Count service attacks, Section 6.1).
Mixture heavy_blend() {
  return Mixture({Catalog::kCollaFilt, Catalog::kKMeans, Catalog::kWordCount},
                 {1.0, 1.0, 1.0});
}

/// Anti-DOPE on `servers` leaf nodes at the Fig. 15 operating point,
/// scaled linearly: 37.5 rps normal and 50 rps flood per server, 55% of
/// nameplate as the budget, flood from t = 120 s of a 600 s window.
ScenarioConfig fig15_scaled(std::size_t servers, std::uint64_t seed) {
  const double n = static_cast<double>(servers);
  ScenarioConfig c;
  c.num_servers = servers;
  c.scheme = SchemeKind::kAntiDope;
  c.budget = BudgetLevel::kMedium;
  c.budget_override = Watts{n * 100.0 * 0.55};
  c.normal_rps = 37.5 * n;
  c.normal_sources = static_cast<unsigned>(32 * servers);
  c.attack_rps = 50.0 * n;
  c.attack_mixture = heavy_blend();
  c.attack_agents = static_cast<unsigned>(8 * servers);
  c.attack_start = 120 * kSecond;
  c.duration = 10 * kMinute;
  c.seed = seed;
  return c;
}

void shorten(ScenarioConfig& c, Duration window) {
  if (window <= 0 || window >= c.duration) return;
  c.attack_start = c.attack_start * window / c.duration;
  c.duration = window;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  // paper8_obs cycles through 4 seeds: how much its hub records per
  // request moves with the traffic seed.
  static const Workload all[] = {
      {.name = "cluster64_flood"},
      {.name = "site8x64_zoneflood"},
      {.name = "paper8_obs", .obs = true, .input_seeds = 4},
      {.name = "fig_grid", .grid = true, .threads = 2},
  };
  for (const auto& w : all) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t input_seed(std::uint64_t seed, std::size_t i) {
  return seed + 1'000'003ull * i;
}

ScenarioConfig scenario_config(const Workload& w, std::uint64_t seed,
                               Duration window) {
  const std::string name = w.name;
  ScenarioConfig c;
  if (name == "cluster64_flood") {
    c = fig15_scaled(64, seed);
  } else if (name == "paper8_obs") {
    c = fig15_scaled(8, seed);
    c.default_alert_rules = true;
  } else if (name == "site8x64_zoneflood") {
    // Eight cluster64 zones at their level-derived Medium budgets; the
    // whole site's flood enters through zone 3's front door.
    c = fig15_scaled(64, seed);
    c.budget_override = Watts{0.0};
    c.num_zones = 8;
    c.normal_rps *= 8.0;
    c.normal_sources *= 8;
    c.glb_policy = dope::site::GlobalLbPolicy::kWeighted;
    c.site_divider = dope::site::DividerKind::kDemandProportional;
    c.attack_zone = 3;
    c.attack_start = 30 * kSecond;
    c.duration = 2 * kMinute;
  } else {
    // fig_grid's base cell: the paper's evaluation cluster.
    c.num_servers = 8;
    c.scheme = SchemeKind::kCapping;
    c.normal_rps = 300.0;
    c.attack_rps = 400.0;
    c.attack_mixture = heavy_blend();
    c.duration = 10 * kMinute;
    c.seed = seed;
  }
  shorten(c, window);
  return c;
}

dope::sweep::GridSpec grid_spec(const Workload& w, std::uint64_t seed,
                                Duration window) {
  dope::sweep::GridSpec grid;
  grid.base = scenario_config(w, seed, window);
  grid.budgets = {BudgetLevel::kNormal, BudgetLevel::kHigh,
                  BudgetLevel::kMedium, BudgetLevel::kLow};
  grid.schemes.assign(std::begin(dope::scenario::kEvaluatedSchemes),
                      std::end(dope::scenario::kEvaluatedSchemes));
  grid.seeds = {seed, seed + 1};
  return grid;
}

ScenarioConfig one_slot(ScenarioConfig c) {
  c.duration = c.slot;
  return c;
}

dope::obs::HubConfig full_hub_config() {
  dope::obs::HubConfig hub;
  hub.enable_spans = true;
  hub.enable_timeseries = true;
  hub.enable_flight = true;
  return hub;
}

const std::vector<std::string>& obs_output_names() {
  static const std::vector<std::string> names = {
      "metrics.json", "incidents.json", "forensics.json"};
  return names;
}

void write_obs_outputs(dope::obs::Hub& hub, const ScenarioConfig& config,
                       const std::string& dir) {
  const auto& names = obs_output_names();
  const auto open = [&dir](const std::string& name) {
    std::ofstream out(dir + "/" + name);
    if (!out) throw std::runtime_error("cannot write " + dir + "/" + name);
    return out;
  };
  {
    auto out = open(names[0]);
    hub.registry().write_json(out, /*percentiles=*/true);
  }
  {
    auto out = open(names[1]);
    hub.flight()->write_json(out);
  }
  {
    auto out = open(names[2]);
    dope::obs::Forensics::build(*hub.spans(), hub.trace(), config.duration)
        .write_json(out);
  }
}

}  // namespace dopebench
