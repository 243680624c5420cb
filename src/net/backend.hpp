// Abstract backend (compute node) interface seen by the network layer.
//
// The load balancer and routers only need load visibility and a submit
// path; `server::ServerNode` implements this interface. Keeping the
// interface here avoids a dependency cycle between net and server.
//
// Least-loaded key contract. `lb_key()` is what a least-loaded pick
// compares: the sentinel `kRefusing` when the backend is not accepting,
// else its `load()`. Every backend keeps `load()` below `kRefusing`.
// A backend may publish the key (`publish_lb_key`) so that a pick reads
// one field instead of making two virtual calls; `ServerNode` does. A
// publisher republishes at every change of `load()` or `accepting()`,
// before it runs any code that could pick (record sinks, span closes),
// so the published key always equals `accepting() ? load() : kRefusing`.
// A backend that never publishes gets the key from the two virtuals.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workload/request.hpp"

namespace dope::net {

/// A dispatch target for the load balancer.
class Backend {
 public:
  /// Least-loaded key of a backend that refuses new work.
  static constexpr std::uint32_t kRefusing = ~std::uint32_t{0};

  virtual ~Backend() = default;

  /// Stable identifier (server index within the cluster).
  virtual int backend_id() const = 0;

  /// Requests currently queued plus in service (load-balancing signal).
  virtual std::size_t load() const = 0;

  /// False when the node refuses new work (drained / unhealthy).
  virtual bool accepting() const = 0;

  /// Hands a request to the node. The node owns it from here and will
  /// eventually emit a completion/drop record.
  virtual void submit(workload::Request&& request) = 0;

  /// `accepting() ? load() : kRefusing`: the published key, or the two
  /// virtual calls for a backend that does not publish.
  std::uint32_t lb_key() const {
    if (publishes_lb_key_) return lb_key_;
    return accepting() ? static_cast<std::uint32_t>(load()) : kRefusing;
  }

 protected:
  /// Publishes the key `lb_key()` returns from now on (see the contract
  /// at the top of this file).
  void publish_lb_key(std::uint32_t key) {
    lb_key_ = key;
    publishes_lb_key_ = true;
  }

 private:
  std::uint32_t lb_key_ = kRefusing;
  bool publishes_lb_key_ = false;
};

}  // namespace dope::net
