#include "cluster/control_plane.hpp"

#include <utility>

#include "common/expect.hpp"

namespace dope::cluster {

ControlStage::~ControlStage() = default;

void ControlStage::attach(Cluster& cluster) {
  DOPE_REQUIRE(cluster_ == nullptr || cluster_ == &cluster,
               "control stage is already attached to another cluster — "
               "detach() it first (stale Cluster* pointers would dangle)");
  cluster_ = &cluster;
}

void ControlStage::detach() { cluster_ = nullptr; }

ControlPlane::ControlPlane(Cluster& cluster) : cluster_(cluster) {}

ControlPlane::~ControlPlane() { clear(); }

void ControlPlane::install(std::unique_ptr<ControlStage> stage) {
  DOPE_REQUIRE(stage != nullptr, "stage must not be null");
  clear();
  push_stage(std::move(stage));
}

ControlStage& ControlPlane::push_stage(std::unique_ptr<ControlStage> stage) {
  DOPE_REQUIRE(stage != nullptr, "stage must not be null");
  stages_.push_back(std::move(stage));
  stages_.back()->attach(cluster_);
  return *stages_.back();
}

std::unique_ptr<ControlStage> ControlPlane::release_stage(std::size_t i) {
  DOPE_REQUIRE(i < stages_.size(), "stage index out of range");
  std::unique_ptr<ControlStage> out = std::move(stages_[i]);
  stages_.erase(stages_.begin() + static_cast<long>(i));
  out->detach();
  return out;
}

void ControlPlane::clear() {
  // Detach in reverse installation order (mirror of construction).
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    (*it)->detach();
  }
  stages_.clear();
}

ControlStage* ControlPlane::stage(std::size_t i) {
  DOPE_REQUIRE(i < stages_.size(), "stage index out of range");
  return stages_[i].get();
}

bool ControlPlane::admit(const workload::Request& request) {
  for (auto& stage : stages_) {
    if (!stage->admit(request)) return false;
  }
  return true;
}

net::Backend* ControlPlane::route(const workload::Request& request) {
  for (auto& stage : stages_) {
    net::Backend* backend = stage->route(request);
    if (backend != nullptr) return backend;
  }
  return nullptr;
}

void ControlPlane::on_slot(Time now, Duration slot) {
  for (auto& stage : stages_) stage->on_slot(now, slot);
}

}  // namespace dope::cluster
