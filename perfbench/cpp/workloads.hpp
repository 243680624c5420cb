// The benchmark's workloads: each is a fixed scenario (or sweep grid)
// whose only free input is the seed. README.md records why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "scenario/scenario.hpp"
#include "sweep/sweep.hpp"

namespace dopebench {

struct Workload {
  const char* name = "";
  /// Runs a `sweep::GridSpec` through `SweepRunner` instead of one
  /// `run_scenario` call.
  bool grid = false;
  /// Attaches a full `obs::Hub` and writes its outputs.
  bool obs = false;
  /// Worker threads (grid workloads only).
  std::size_t threads = 1;
  /// Traffic seeds the measured runs cycle through (see input_seed):
  /// more than one where the per-request cost depends on the seed.
  std::size_t input_seeds = 1;
};

/// The `i`-th traffic seed of a run invoked with `seed`; `seed` itself
/// for i == 0.
std::uint64_t input_seed(std::uint64_t seed, std::size_t i);

/// Null when `name` names no workload.
const Workload* find_workload(const std::string& name);

/// The scenario of a single-run workload. `window` > 0 shortens the
/// observation window (attack onset scaled with it); tests use it.
dope::scenario::ScenarioConfig scenario_config(const Workload& w,
                                               std::uint64_t seed,
                                               dope::Duration window = 0);

/// The grid of a grid workload (same `window` rule per cell).
dope::sweep::GridSpec grid_spec(const Workload& w, std::uint64_t seed,
                                dope::Duration window = 0);

/// The same workload run for one management slot: the set-up stand-in
/// (run_scenario rejects a zero-length window).
dope::scenario::ScenarioConfig one_slot(dope::scenario::ScenarioConfig c);

/// Hub of an obs workload: metrics, spans, per-slot series and the
/// flight recorder.
dope::obs::HubConfig full_hub_config();

/// Writes an obs workload's outputs into `dir`: the metrics registry,
/// the incident bundle and the per-source forensics rollup, as JSON.
/// Throws std::runtime_error when a file cannot be written.
void write_obs_outputs(dope::obs::Hub& hub,
                       const dope::scenario::ScenarioConfig& config,
                       const std::string& dir);

/// The output files `write_obs_outputs` creates, in order.
const std::vector<std::string>& obs_output_names();

}  // namespace dopebench
