// dopebench: host-time cost of DOPE scenarios, end to end and per layer.
//
//   dopebench --workload NAME --seed N --seconds S --trace 0|1
//             [--window-s W] [--out-dir DIR] [--part setup|runs|all]
//
// --trace 0 measures the end-to-end metrics untraced, through the entry
// points users call (scenario::run_scenario, sweep::SweepRunner): set-up
// time, simulated requests per host second over repeated whole runs for
// S seconds (scaled to the host's speed, which a probe measures between
// runs; see probe.hpp), and peak RSS. --trace 1 runs the workload once
// untraced, then repeats it through the traced mirror (mirror.hpp) for S
// seconds, and prints the per-layer metrics. Every run's outputs are
// checked (see check_*); the last line of stdout is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --window-s shortens the simulated window (tests); --out-dir is where
// obs outputs are written (default: the working directory). --part
// splits --trace 0 into its set-up measurement and its measured runs, so
// run.py can take set-up time from several fresh processes.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/minijson.hpp"
#include "common/parallel.hpp"
#include "digest.hpp"
#include "mirror.hpp"
#include "net/load_balancer.hpp"
#include "obs/hub.hpp"
#include "probe.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace dopebench {
namespace {

using dope::Duration;
using dope::scenario::ScenarioConfig;
using dope::scenario::ScenarioResult;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Mean of the larger half of `v` (the middle value included when the
/// count is odd); 0 when empty. A busy neighbour on a shared host only
/// ever slows a run down, and the host probe tracks that only in part, so
/// the faster half of the runs is the steadier estimate of the rate. Over
/// 10 seeds per workload its spread (interquartile range / median) was
/// 0.059-0.096, against 0.070-0.098 for the upper quartile.
double upper_half_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto first = v.begin() + static_cast<long>(v.size() / 2);
  double sum = 0.0;
  for (auto it = first; it != v.end(); ++it) sum += *it;
  return sum / static_cast<double>(v.end() - first);
}

/// The probe time the end-to-end metrics are scaled to (see probe.hpp): a
/// round figure inside the probe's range on a 4-vCPU Xeon VM, 0.07 s when
/// the host is quiet and up to 0.12 s in its slow phases.
constexpr double kProbeRefS = 0.1;

/// Chunks of set-up runs per process; the host probe runs between them.
constexpr int kSetupChunks = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Duration window = 0;
  std::string out_dir = ".";
  /// --trace 0 only: "setup", "runs" or "all" (both).
  std::string part = "all";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dopebench: " << why
            << "\nusage: dopebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--window-s W] [--out-dir DIR] "
               "[--part setup|runs|all]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--window-s") {
        a.window = dope::seconds(std::stod(value));
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else if (flag == "--part") {
        if (value != "setup" && value != "runs" && value != "all") {
          usage("--part takes setup, runs or all");
        }
        a.part = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || a.seconds > 60.0) {
    usage("--seconds must be in (0, 60]");
  }
  return a;
}

// ------------------------------------------------------------- checks

/// Problems found in one run; empty when the run is correct.
using Problems = std::vector<std::string>;

std::uint64_t expected_slots(const ScenarioConfig& c) {
  return static_cast<std::uint64_t>(c.duration / c.slot);
}

/// Checks every result carries: the slot books fit the run's slot count.
void check_result(const ScenarioResult& r, const ScenarioConfig& c,
                  Problems& problems) {
  const std::uint64_t slots = expected_slots(c);
  const std::uint64_t zone_slots = slots * c.num_zones;
  const auto& s = r.slot_stats;
  if (s.slots != slots) {
    problems.push_back("slot_stats.slots " + std::to_string(s.slots) +
                       " != " + std::to_string(slots));
  }
  if (s.violation_slots > zone_slots || s.utility_violation_slots > zone_slots ||
      s.outages > zone_slots) {
    problems.push_back("slot_stats counts exceed the run's slot count");
  }
  if (!r.zones.empty()) {
    double zone_load = 0.0;
    for (const auto& z : r.zones) zone_load += z.load_energy.value();
    const double load = r.energy.load_total().value();
    if (std::abs(zone_load - load) > 1e-6 * std::max(1.0, load)) {
      problems.push_back("zone load energies do not sum to the site's");
    }
  }
}

/// Mirror-only checks: request and energy conservation.
void check_mirror(const MirrorRun& m, const ScenarioConfig& c,
                  Problems& problems) {
  check_result(m.result, c, problems);
  if (m.generated != m.terminal + m.in_flight) {
    problems.push_back("requests: generated " + std::to_string(m.generated) +
                       " != terminal " + std::to_string(m.terminal) +
                       " + in flight " + std::to_string(m.in_flight));
  }
  const double load = m.result.energy.load_total().value();
  if (std::abs(load - m.server_energy_j) >
      1e-6 * std::max(1.0, m.server_energy_j)) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "energy: utility + battery " << load << " J != server load "
        << m.server_energy_j << " J";
    problems.push_back(msg.str());
  }
}

// ------------------------------------------------------ untraced runs

struct Untraced {
  std::vector<ScenarioResult> results;
  std::vector<ScenarioConfig> configs;
  std::uint64_t digest = 0;
  /// Digest of the obs output files (obs workloads), else 0.
  std::uint64_t outputs_digest = 0;
  double wall_s = 0.0;
};

std::uint64_t combined_digest(const std::vector<ScenarioResult>& results) {
  if (results.size() == 1) return result_digest(results[0]);
  Digest d;
  for (const auto& r : results) d.u64(result_digest(r));
  return d.value();
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Digest d;
  d.str(bytes);
  return d.value();
}

std::uint64_t outputs_digest(const std::string& dir) {
  Digest d;
  for (const auto& name : obs_output_names()) {
    d.u64(file_digest(dir + "/" + name));
  }
  return d.value();
}

std::vector<ScenarioConfig> cell_configs(const dope::sweep::GridSpec& grid) {
  std::vector<ScenarioConfig> configs;
  for (const auto& point : dope::sweep::expand(grid)) {
    configs.push_back(dope::sweep::materialize(grid, point));
  }
  return configs;
}

dope::sweep::GridSpec workload_grid(const Workload& w, const Args& a,
                                    bool setup) {
  auto grid = grid_spec(w, a.seed, a.window);
  if (setup) grid.base = one_slot(grid.base);
  return grid;
}

ScenarioConfig workload_scenario(const Workload& w, const Args& a,
                                 bool setup) {
  auto c = scenario_config(w, a.seed, a.window);
  return setup ? one_slot(c) : c;
}

/// One whole untraced run through the user-facing entry point. Throws
/// on a failed run.
Untraced run_untraced(const Workload& w, const Args& a, bool setup) {
  Untraced u;
  if (w.grid) {
    const auto grid = workload_grid(w, a, setup);
    const auto t0 = Clock::now();
    auto sweep = dope::sweep::SweepRunner({.threads = w.threads}).run(grid);
    u.wall_s = seconds_since(t0);
    sweep.require_all_ok();
    for (auto& run : sweep.runs) u.results.push_back(std::move(run.result));
    u.configs = cell_configs(grid);
  } else {
    ScenarioConfig config = workload_scenario(w, a, setup);
    const auto t0 = Clock::now();
    std::unique_ptr<dope::obs::Hub> hub;
    if (w.obs) {
      hub = std::make_unique<dope::obs::Hub>(full_hub_config());
      config.obs = hub.get();
    }
    u.results.push_back(dope::scenario::run_scenario(config));
    if (hub) write_obs_outputs(*hub, config, a.out_dir);
    hub.reset();
    u.wall_s = seconds_since(t0);
    config.obs = nullptr;
    u.configs.push_back(config);
    if (w.obs) u.outputs_digest = outputs_digest(a.out_dir);
  }
  u.digest = combined_digest(u.results);
  return u;
}

// ----------------------------------------------------- mirror runs

struct Reference {
  std::vector<MirrorRun> runs;
  std::uint64_t digest = 0;
  /// Digest of the obs output files the mirror wrote, else 0.
  std::uint64_t outputs_digest = 0;
  std::uint64_t generated = 0;
  LayerTrace trace;
  Problems problems;
};

/// The workload through the traced mirror. `parallel` spreads grid cells
/// over the workload's threads (digest and counts only; per-layer
/// numbers come from the serial form).
Reference run_reference(const Workload& w, const Args& a, bool parallel,
                        dope::obs::Hub* hub = nullptr) {
  std::vector<ScenarioConfig> configs;
  if (w.grid) {
    configs = cell_configs(workload_grid(w, a, false));
  } else {
    configs.push_back(workload_scenario(w, a, false));
    configs.back().obs = hub;
  }
  Reference ref;
  ref.runs.resize(configs.size());
  const std::string export_dir = hub != nullptr ? a.out_dir : "";
  if (parallel && configs.size() > 1) {
    dope::parallel_for(
        configs.size(),
        [&](std::size_t i) { ref.runs[i] = run_mirror(configs[i]); },
        w.threads);
  } else {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ref.runs[i] = run_mirror(configs[i], export_dir);
    }
  }
  std::vector<ScenarioResult> results;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    MirrorRun& m = ref.runs[i];
    check_mirror(m, configs[i], ref.problems);
    ref.generated += m.generated;
    ref.trace.merge(m.trace);
    results.push_back(m.result);
  }
  ref.digest = combined_digest(results);
  if (!export_dir.empty()) {
    ref.outputs_digest = outputs_digest(export_dir);
    for (const auto& name : obs_output_names()) {
      std::ifstream in(export_dir + "/" + name);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      try {
        dope::minijson::parse(text);
      } catch (const std::exception& e) {
        ref.problems.push_back(name + " is not valid JSON: " + e.what());
      }
    }
  }
  return ref;
}

// --------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_problems(const std::string& what, const Problems& problems) {
  for (const auto& p : problems) {
    std::cout << "dopebench: FAIL " << what << ": " << p << "\n";
  }
}

// --------------------------------------------- end-to-end (--trace 0)

int run_end_to_end(const Workload& w, const Args& a) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto attempt = [&](const std::string& what, auto&& body) {
    ++attempted;
    Problems problems;
    try {
      body(problems);
    } catch (const std::exception& e) {
      problems.push_back(std::string("threw: ") + e.what());
    }
    if (!problems.empty()) {
      ++failed;
      report_problems(what, problems);
    }
  };
  std::vector<Metric> metrics;

  if (a.part != "runs") {
    // Set-up: the workload run for one management slot, in kSetupChunks
    // chunks of at least 5 runs and 0.1 s each (at most 70 runs or 1.3 s).
    // The host probe is timed before, between and after the chunks, and
    // each run's time is scaled like sim_rps_norm's rate: to a host where
    // the probe takes kProbeRefS. The process's figure is the lower decile
    // of its runs: on a shared host a slow phase can hold most of a
    // process's runs, and interference only ever adds time, so a low
    // quantile is the steadier estimate of the work.
    HostProbe probe;
    std::vector<double> host_s, setup_s;
    double probe_before = probe.run_s();
    for (int chunk = 0; chunk < kSetupChunks; ++chunk) {
      const std::size_t first = host_s.size();
      const auto start = Clock::now();
      for (int run = 0; run < 70 && (run < 5 || seconds_since(start) < 0.1) &&
                        (run < 2 || seconds_since(start) < 1.3);
           ++run) {
        attempt("set-up run", [&](Problems& problems) {
          const Untraced u = run_untraced(w, a, /*setup=*/true);
          for (std::size_t i = 0; i < u.results.size(); ++i) {
            check_result(u.results[i], u.configs[i], problems);
          }
          host_s.push_back(u.wall_s);
        });
      }
      const double probe_after = probe.run_s();
      const double scale = 2.0 * kProbeRefS / (probe_before + probe_after);
      for (std::size_t i = first; i < host_s.size(); ++i) {
        setup_s.push_back(host_s[i] * scale);
      }
      probe_before = probe_after;
    }
    std::cout << "dopebench: " << setup_s.size()
              << " set-up runs, host lower decile " << quantile(host_s, 0.1)
              << " s, scaled lower decile " << quantile(setup_s, 0.1)
              << " s, scaled median " << median(setup_s) << " s\n";
    metrics.push_back({"setup_s", quantile(setup_s, 0.1), "s"});
  }

  if (a.part != "setup") {
    // The host probe (see the measured runs below) is built first, so its
    // buffer is resident through every run and peak_rss_mb can leave it
    // out exactly.
    HostProbe probe;

    // The references: the traced mirror per input seed, checked for
    // conservation. Their digests are what the measured runs reproduce.
    std::vector<Args> inputs;
    std::vector<Reference> refs;
    for (std::size_t i = 0; i < w.input_seeds; ++i) {
      Args input = a;
      input.seed = input_seed(a.seed, i);
      inputs.push_back(input);
      refs.emplace_back();
      attempt("mirror run", [&](Problems& problems) {
        std::unique_ptr<dope::obs::Hub> hub;
        if (w.obs) hub = std::make_unique<dope::obs::Hub>(full_hub_config());
        refs.back() = run_reference(w, input, /*parallel=*/true, hub.get());
        problems = refs.back().problems;
      });
      std::cout << "dopebench: " << w.name << " seed " << input.seed
                << " digest " << hex(refs.back().digest) << " requests "
                << refs.back().generated << "\n";
    }

    // One whole untraced run of input seed `i`, checked against its
    // mirror reference; its wall time, or nothing when it failed.
    const auto checked_run = [&](const std::string& what, std::size_t i) {
      std::optional<double> wall_s;
      attempt(what, [&](Problems& problems) {
        const Untraced u = run_untraced(w, inputs[i], /*setup=*/false);
        for (std::size_t j = 0; j < u.results.size(); ++j) {
          check_result(u.results[j], u.configs[j], problems);
        }
        if (u.digest != refs[i].digest) {
          problems.push_back("digest " + hex(u.digest) + " != mirror " +
                             hex(refs[i].digest));
        }
        if (u.outputs_digest != refs[i].outputs_digest) {
          problems.push_back("obs outputs differ from the mirror's");
        }
        if (problems.empty()) wall_s = u.wall_s;
      });
      return wall_s;
    };

    // A warm-up run per input seed, untimed.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      checked_run("warm-up run", i);
    }

    // Measured whole runs, cycling through the input seeds, with the host
    // probe timed between every two runs. A run's rate is scaled by the
    // mean of the probe times on either side of it: the rate the run would
    // have had on a host where the probe takes kProbeRefS.
    double probe_before = probe.run_s();
    std::vector<double> raw_rps, norm_rps, probe_s;
    const auto start = Clock::now();
    for (std::size_t run = 0;
         run < 3 || seconds_since(start) < a.seconds; ++run) {
      if (seconds_since(start) > a.seconds + 60.0) break;
      const std::size_t i = run % inputs.size();
      const std::optional<double> wall_s = checked_run("measured run", i);
      const double probe_after = probe.run_s();
      if (wall_s) {
        const double rate = static_cast<double>(refs[i].generated) / *wall_s;
        const double p = 0.5 * (probe_before + probe_after);
        raw_rps.push_back(rate);
        probe_s.push_back(p);
        norm_rps.push_back(rate * p / kProbeRefS);
      }
      probe_before = probe_after;
    }
    std::cout << "dopebench: " << raw_rps.size() << " measured runs in "
              << seconds_since(start) << " s\n";
    const auto print_list = [](const char* label,
                               const std::vector<double>& v) {
      std::cout << "dopebench: " << label << ":";
      for (double x : v) std::cout << " " << x;
      std::cout << "\n";
    };
    print_list("host sim_rps per run", raw_rps);
    std::cout << "dopebench: host sim_rps upper-half mean "
              << upper_half_mean(raw_rps) << " 1/s\n";
    print_list("probe s per run", probe_s);
    print_list("sim_rps_norm per run", norm_rps);
    std::cout << "dopebench: probe median " << median(probe_s) << " s\n";
    metrics.insert(metrics.begin(),
                   {"sim_rps_norm", upper_half_mean(norm_rps), "1/s"});
    const double probe_mb =
        static_cast<double>(probe.buffer_bytes()) / (1024.0 * 1024.0);
    metrics.push_back({"peak_rss_mb", peak_rss_mb() - probe_mb, "MB"});
  }

  std::cout << "dopebench: failed_run_frac "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " (" << failed << " of " << attempted << " runs)\n";
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------- per-layer (--trace 1)

/// A least-loaded balancer's backend stand-in: load moves by one per
/// pick and drains round-robin, as a busy pool does.
class StubBackend final : public dope::net::Backend {
 public:
  explicit StubBackend(int id) : id_(id) {}
  int backend_id() const override { return id_; }
  std::size_t load() const override { return load_; }
  bool accepting() const override { return true; }
  void submit(dope::workload::Request&&) override { ++load_; }
  void drain() {
    if (load_ > 0) --load_;
  }

 private:
  int id_;
  std::size_t load_ = 0;
};

/// `LoadBalancer::select` alone at `backends` backends, ns per pick
/// (median of batches).
double lb_select_ns(std::size_t backends) {
  std::vector<std::unique_ptr<StubBackend>> nodes;
  std::vector<dope::net::Backend*> pool;
  for (std::size_t i = 0; i < backends; ++i) {
    nodes.push_back(std::make_unique<StubBackend>(static_cast<int>(i)));
    pool.push_back(nodes.back().get());
  }
  dope::net::LoadBalancer lb(dope::net::LbPolicy::kLeastLoaded, pool);
  const dope::workload::Request request;
  constexpr int kPicks = 100000;
  std::vector<double> batches;
  std::size_t drain = 0;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPicks; ++i) {
      auto* backend = static_cast<StubBackend*>(lb.select(request));
      backend->submit(dope::workload::Request{});
      nodes[drain]->drain();
      drain = (drain + 1) % backends;
    }
    batches.push_back(seconds_since(t0) * 1e9 / kPicks);
  }
  return median(batches);
}

int run_per_layer(const Workload& w, const Args& a) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto record = [&](const std::string& what, const Problems& p) {
    ++attempted;
    if (!p.empty()) {
      ++failed;
      report_problems(what, p);
    }
  };

  Untraced untraced;
  {
    Problems p;
    try {
      untraced = run_untraced(w, a, /*setup=*/false);
      for (std::size_t i = 0; i < untraced.results.size(); ++i) {
        check_result(untraced.results[i], untraced.configs[i], p);
      }
    } catch (const std::exception& e) {
      p.push_back(std::string("threw: ") + e.what());
    }
    record("untraced run", p);
  }

  // Grid cells one at a time, untraced: the sweep's serial work.
  std::vector<double> cell_ms;
  if (w.grid) {
    Problems p;
    try {
      for (const auto& config : cell_configs(workload_grid(w, a, false))) {
        const auto t0 = Clock::now();
        const auto r = dope::scenario::run_scenario(config);
        cell_ms.push_back(seconds_since(t0) * 1e3);
        check_result(r, config, p);
      }
    } catch (const std::exception& e) {
      p.push_back(std::string("threw: ") + e.what());
    }
    record("serial cells", p);
  }

  // The traced mirror (hub attached for obs workloads), repeated for
  // --seconds; for obs workloads each repetition also runs detached.
  LayerTrace t;
  std::uint64_t generated = 0;
  std::uint64_t events = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t spans = 0;
  double attached_ns = 0.0;
  double detached_ns = 0.0;
  // Allocation counts come from the first repetition alone: later ones
  // find function-local statics already built.
  double alloc_setup = 0.0;
  double alloc_per_req = 0.0;
  std::size_t reps = 0;
  const auto start = Clock::now();
  do {
    ++reps;
    Problems p;
    try {
      std::unique_ptr<dope::obs::Hub> hub;
      if (w.obs) hub = std::make_unique<dope::obs::Hub>(full_hub_config());
      const Reference ref = run_reference(w, a, /*parallel=*/false, hub.get());
      p = ref.problems;
      if (ref.digest != untraced.digest) {
        p.push_back("mirror digest " + hex(ref.digest) + " != untraced " +
                    hex(untraced.digest));
      }
      if (ref.outputs_digest != untraced.outputs_digest) {
        p.push_back("mirror obs outputs differ from the untraced run's");
      }
      if (reps == 1) {
        std::cout << "dopebench: " << w.name << " seed " << a.seed
                  << " digest untraced " << hex(untraced.digest)
                  << " mirror " << hex(ref.digest) << "\n";
        alloc_setup = static_cast<double>(ref.trace.alloc_setup);
        alloc_per_req = static_cast<double>(ref.trace.alloc_steady) /
                        static_cast<double>(std::max<std::uint64_t>(
                            1, ref.generated));
      }
      t.merge(ref.trace);
      generated += ref.generated;
      for (const auto& m : ref.runs) {
        events += m.events;
        pool_slots = std::max<std::uint64_t>(pool_slots, m.pool_slots);
      }
      if (hub) {
        trace_events += hub->trace().recorded();
        spans += hub->spans()->recorded();
      }
      attached_ns += ref.trace.total_ns - ref.trace.export_ns;
    } catch (const std::exception& e) {
      p.push_back(std::string("threw: ") + e.what());
    }
    record("traced mirror", p);

    if (w.obs) {
      Problems q;
      try {
        const Reference detached = run_reference(w, a, false, nullptr);
        q = detached.problems;
        if (detached.digest != untraced.digest) {
          q.push_back("detached mirror digest differs");
        }
        detached_ns += detached.trace.total_ns;
      } catch (const std::exception& e) {
        q.push_back(std::string("threw: ") + e.what());
      }
      record("detached mirror", q);
    }
  } while (seconds_since(start) < a.seconds);
  std::cout << "dopebench: " << reps << " traced repetitions in "
            << seconds_since(start) << " s\n";

  const double req = static_cast<double>(std::max<std::uint64_t>(1, generated));
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto frac = [&t](double ns) {
    return t.total_ns > 0.0 ? ns / t.total_ns : 0.0;
  };
  const ScenarioConfig base = workload_scenario(w, a, false);
  double untraced_work_s = untraced.wall_s;
  double parallel_eff = 0.0;
  if (w.grid) {
    double serial_ms = 0.0;
    for (double ms : cell_ms) serial_ms += ms;
    untraced_work_s = serial_ms / 1e3;
    parallel_eff = untraced_work_s /
                   (untraced.wall_s * static_cast<double>(w.threads));
  }
  const double obs_overhead = detached_ns > 0.0 ? attached_ns / detached_ns
                                                : 0.0;
  const double clock_total = static_cast<double>(t.clock_reads) * t.clock_ns;
  const double control_ns = t.control_req_ns + t.on_slot_ns;
  const std::vector<std::pair<const char*, double>> self = {
      {"self.setup", t.setup_ns},
      {"self.workload", t.arrival_self_ns},
      {"self.site", t.site_ingest_self_ns},
      {"self.cluster_ingest", t.cluster_ingest_self_ns},
      {"self.control", control_ns},
      {"self.power", t.power_slot_ns},
      {"self.server", t.other_ns},
      {"self.probe", t.probe_ns},
      {"self.tail", t.tail_ns},
      {"self.summary", t.summary_ns},
      {"self.export", t.export_ns},
      {"self.clock", clock_total},
  };
  double attributed = 0.0;
  for (const auto& [name, ns] : self) attributed += ns;

  std::vector<Metric> metrics = {
      {"sim.events_per_req", static_cast<double>(events) / req, "count"},
      {"sim.step_self_ns", per(t.level_engine_ns, t.level_steps), "ns"},
      {"sim.pool_slots_peak", static_cast<double>(pool_slots), "count"},
      {"workload.arrival_self_ns", per(t.arrival_self_ns, t.arrival_steps),
       "ns"},
      {"cluster.ingest_ns.p50", quantile(t.cluster_ingest_samples, 0.50),
       "ns"},
      {"cluster.ingest_ns.p99", quantile(t.cluster_ingest_samples, 0.99),
       "ns"},
      {"cluster.ingest_share", frac(t.cluster_ingest_ns + t.site_ingest_ns),
       "frac"},
      {"net.lb_select_ns", lb_select_ns(base.num_servers), "ns"},
      {"server.completion_step_ns", per(t.other_ns, t.other_steps), "ns"},
      {"cluster.power_slot_ns", per(t.power_slot_ns, t.slot_steps), "ns"},
      {"cluster.control_slot_ns.p50", quantile(t.on_slot_samples, 0.50),
       "ns"},
      {"cluster.control_slot_ns.p99", quantile(t.on_slot_samples, 0.99),
       "ns"},
      {"cluster.control_req_ns", per(t.control_req_ns, t.control_reqs), "ns"},
      {"site.ingest_ns.p50", quantile(t.site_ingest_samples, 0.50), "ns"},
      {"site.ingest_ns.p99", quantile(t.site_ingest_samples, 0.99), "ns"},
      {"obs.overhead_x", obs_overhead, "x"},
      {"obs.export_s", per(t.export_ns / 1e9, reps), "s"},
      {"obs.trace_events_per_req", static_cast<double>(trace_events) / req,
       "count"},
      {"obs.spans_per_req", static_cast<double>(spans) / req, "count"},
      {"sweep.cell_ms.p50", quantile(cell_ms, 0.50), "ms"},
      {"sweep.cell_ms.p99", quantile(cell_ms, 0.99), "ms"},
      {"sweep.parallel_eff", parallel_eff, "frac"},
      {"alloc.per_req", alloc_per_req, "count"},
      {"alloc.setup_count", alloc_setup, "count"},
      {"slot.host_ms.p50", quantile(t.slot_host_ms, 0.50), "ms"},
      {"slot.host_ms.p99", quantile(t.slot_host_ms, 0.99), "ms"},
      {"trace.overhead_x",
       t.total_ns / 1e9 / (static_cast<double>(reps) * untraced_work_s), "x"},
      {"trace.clock_read_ns", t.clock_ns, "ns"},
  };
  for (const auto& [name, ns] : self) {
    metrics.push_back({std::string(name) + "_frac", frac(ns), "frac"});
  }
  metrics.push_back(
      {"self.unattributed_frac", frac(t.total_ns - attributed), "frac"});
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace dopebench

int main(int argc, char** argv) {
  const dopebench::Args args = dopebench::parse_args(argc, argv);
  const dopebench::Workload& w = *dopebench::find_workload(args.workload);
  std::cout << "dopebench: build " << DOPEBENCH_BUILD_TYPE << ", compiler "
#if defined(__clang__)
            << "clang "
#else
            << "gcc "
#endif
            << __VERSION__ << "\n";
  try {
    return args.trace ? dopebench::run_per_layer(w, args)
                      : dopebench::run_end_to_end(w, args);
  } catch (const std::exception& e) {
    std::cerr << "dopebench: " << e.what() << "\n";
    return 1;
  }
}
