// The traced mirror: `scenario::run_scenario` rebuilt from the
// simulator's public APIs (sim::Engine, cluster::Cluster / site::Site,
// workload::TrafficGenerator, scenario::make_scheme) with a timer at each
// layer boundary. Nothing inside src/ is instrumented; the mirror times
// calls into the layers from outside:
//   - the generator sinks around `Cluster::ingest` / `Site::ingest`;
//   - a ControlStage decorator around each scheme (`admit`, `route`,
//     `on_slot`);
//   - every engine step, one at a time, chunked at management-slot
//     boundaries by the scenario's own per-slot probe.
// Construction and scheduling happen in run_scenario's order, so the
// mirror's ScenarioResult must equal run_scenario's bit for bit; the
// benchmark checks that through the result digest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace dopebench {

/// Host-time accounting of one traced run. Durations are nanoseconds,
/// net of the cost of the clock reads they contain.
struct LayerTrace {
  /// Calibrated cost of one clock read (averaged over merged runs).
  double clock_ns = 0.0;
  std::uint64_t clock_reads = 0;

  // Phases of the run: together with the step buckets below and the
  // clock cost they account for `total_ns`; the rest is unattributed.
  double total_ns = 0.0;
  double setup_ns = 0.0;
  double tail_ns = 0.0;  // the closing run_until at the window's end
  double summary_ns = 0.0;
  double export_ns = 0.0;

  // Engine steps, by the boundaries they reached.
  std::uint64_t arrival_steps = 0;
  double arrival_self_ns = 0.0;  // arrival step minus the ingest it made
  std::uint64_t slot_steps = 0;
  double power_slot_ns = 0.0;  // slot step minus its control stages
  std::uint64_t level_steps = 0;
  double level_engine_ns = 0.0;  // level-probe step minus the probe body
  double probe_ns = 0.0;         // level + timeline probe steps
  std::uint64_t other_steps = 0;
  double other_ns = 0.0;  // steps reaching no wrapped boundary

  // Boundaries.
  double cluster_ingest_ns = 0.0;
  double cluster_ingest_self_ns = 0.0;
  std::vector<float> cluster_ingest_samples;
  double site_ingest_ns = 0.0;
  double site_ingest_self_ns = 0.0;
  std::vector<float> site_ingest_samples;
  std::uint64_t control_reqs = 0;  // requests that reached admit
  double control_req_ns = 0.0;     // admit + route
  double on_slot_ns = 0.0;
  std::vector<float> on_slot_samples;
  /// Host milliseconds per simulated management slot.
  std::vector<float> slot_host_ms;

  // Heap allocations made by the simulator.
  std::uint64_t alloc_setup = 0;
  std::uint64_t alloc_steady = 0;

  /// Adds `other`'s totals and samples (grid cells).
  void merge(const LayerTrace& other);
};

struct MirrorRun {
  dope::scenario::ScenarioResult result;
  std::uint64_t generated = 0;  // normal + attack requests emitted
  std::uint64_t terminal = 0;   // terminal records, both populations
  std::uint64_t in_flight = 0;  // queued or in service at the end
  double server_energy_j = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pool_slots = 0;
  LayerTrace trace;
};

/// Runs `config` the way run_scenario does, traced. Throws
/// std::invalid_argument for config features no workload uses (node
/// outages, rate plans, forced incident dumps, hysteresis overrides, an
/// obs hub on a multi-zone site). When `config.obs` is set and
/// `export_dir` is non-empty the workload's obs outputs are written
/// there and timed as `export_ns`.
MirrorRun run_mirror(const dope::scenario::ScenarioConfig& config,
                     const std::string& export_dir = "");

/// Quantile `q` in [0, 1] of `v`, interpolated between order
/// statistics; 0 when empty. Reorders `v`.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(lo), v.end());
  const double low = v[lo];
  if (lo + 1 == v.size()) return low;
  const double high =
      *std::min_element(v.begin() + static_cast<long>(lo) + 1, v.end());
  return low + (pos - static_cast<double>(lo)) * (high - low);
}

}  // namespace dopebench
