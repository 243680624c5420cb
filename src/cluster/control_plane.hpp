// Control plane: an ordered, deterministic pipeline of ControlStages.
//
// Replaces the historical single-scheme slot hook. Stages are
// invoked strictly in installation order at each plug point (admit /
// route / on_slot), so two stacks that differ only in order are two
// *different* — but each individually deterministic — control policies.
// With exactly one stage the pipeline is behaviourally identical to the
// old single-scheme cluster.
//
// Ownership and lifecycle: the plane owns its stages, attaches them on
// installation, and detaches them on replacement, release, clear, and
// teardown — a stage can therefore never hold a dangling `Cluster*`
// (see cluster/stage.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/stage.hpp"

namespace dope::cluster {

class Cluster;

/// Stage pipeline of one cluster.
class ControlPlane {
 public:
  explicit ControlPlane(Cluster& cluster);
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // --- stack management ---
  /// Replaces the whole stack with this single stage (the historical
  /// `install_scheme` semantics). Every previous stage is detached.
  void install(std::unique_ptr<ControlStage> stage);

  /// Appends a stage to the pipeline and attaches it. Returns the stage
  /// for convenient further configuration.
  ControlStage& push_stage(std::unique_ptr<ControlStage> stage);

  /// Detaches and hands back stage `i` (ownership transfers to the
  /// caller; remaining stages keep their relative order). The returned
  /// stage can be re-attached to another cluster.
  std::unique_ptr<ControlStage> release_stage(std::size_t i);

  /// Detaches and destroys every stage.
  void clear();

  std::size_t size() const { return stages_.size(); }
  bool empty() const { return stages_.empty(); }
  ControlStage* stage(std::size_t i);

  // --- pipeline plug points (called by the data plane / slot loop) ---
  /// True when every stage admits, asked in order; the first refusal
  /// short-circuits.
  bool admit(const workload::Request& request);

  /// First non-null backend across stages in order; nullptr when every
  /// stage declines.
  net::Backend* route(const workload::Request& request);

  /// Runs every stage's slot hook in order.
  void on_slot(Time now, Duration slot);

 private:
  Cluster& cluster_;
  std::vector<std::unique_ptr<ControlStage>> stages_;
};

}  // namespace dope::cluster
