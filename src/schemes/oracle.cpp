#include "schemes/oracle.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace dope::schemes {

OracleScheme::OracleScheme(double isolation_fraction)
    : isolation_fraction_(isolation_fraction) {
  DOPE_REQUIRE(isolation_fraction > 0.0 && isolation_fraction < 1.0,
               "isolation fraction must be in (0, 1)");
}

void OracleScheme::attach(cluster::Cluster& cluster) {
  ControlStage::attach(cluster);
  const auto& nodes = cluster.data().servers();
  DOPE_REQUIRE(nodes.size() >= 2, "Oracle needs at least two servers");
  const auto k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          static_cast<double>(nodes.size()) * isolation_fraction_ + 0.5),
      1, nodes.size() - 1);
  isolated_nodes_.assign(nodes.begin(), nodes.begin() + static_cast<long>(k));
  clean_nodes_.assign(nodes.begin() + static_cast<long>(k), nodes.end());
  isolated_lb_ = std::make_unique<net::LoadBalancer>(
      net::LbPolicy::kLeastLoaded,
      std::vector<net::Backend*>(isolated_nodes_.begin(),
                                 isolated_nodes_.end()));
  clean_lb_ = std::make_unique<net::LoadBalancer>(
      net::LbPolicy::kLeastLoaded,
      std::vector<net::Backend*>(clean_nodes_.begin(), clean_nodes_.end()));
  isolated_target_ = cluster.ladder().max_level();
}

net::Backend* OracleScheme::route(const workload::Request& request) {
  // The one deliberately impossible read in the codebase (see header).
  if (request.ground_truth_attack) return isolated_lb_->select(request);
  net::Backend* b = clean_lb_->select(request);
  return b != nullptr ? b : isolated_lb_->select(request);
}

void OracleScheme::detach() {
  isolated_nodes_.clear();
  clean_nodes_.clear();
  isolated_lb_.reset();
  clean_lb_.reset();
  ControlStage::detach();
}

void OracleScheme::on_slot(Time now, Duration slot) {
  (void)now;
  (void)slot;
  const Watts budget = cluster_->power().budget();
  const Watts demand = cluster_->data().total_power();
  const auto& ladder = cluster_->ladder();
  if (demand > budget) {
    const Watts clean_now = estimate_power_at_uniform(
        clean_nodes_, ladder.max_level());
    const Watts allowance = std::max(Watts{0.0}, budget - clean_now);
    isolated_target_ = find_uniform_level(isolated_nodes_, ladder,
                                          allowance, isolated_target_);
    request_uniform_level(isolated_nodes_, isolated_target_);
    return;
  }
  if (isolated_target_ < ladder.max_level()) {
    const power::DvfsLevel next = isolated_target_ + 1;
    const Watts projected =
        estimate_power_at_uniform(isolated_nodes_, next) +
        estimate_power_at_uniform(clean_nodes_, ladder.max_level());
    if (projected <= 0.98 * budget) {
      isolated_target_ = next;
      request_uniform_level(isolated_nodes_, isolated_target_);
    }
  }
}

}  // namespace dope::schemes
