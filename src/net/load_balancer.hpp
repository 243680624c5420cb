// Network load balancer (NLB).
//
// Dispatches incoming requests over a pool of backends. Supports the
// classic stateless policies; Anti-DOPE's power-driven forwarding (PDF)
// wraps two of these — one per pool — behind a suspect-list router.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "net/backend.hpp"
#include "workload/request.hpp"

namespace dope::obs {
class Counter;
class Hub;
class SpanTracer;
}  // namespace dope::obs

namespace dope::sim {
class Engine;
}  // namespace dope::sim

namespace dope::net {

/// Backend selection policy.
enum class LbPolicy {
  kRoundRobin,
  kLeastLoaded,
  kRandom,
  /// Consistent per-source assignment (source-affinity hashing).
  kSourceHash,
};

/// Load balancer over one backend pool.
class LoadBalancer {
 public:
  LoadBalancer(LbPolicy policy, std::vector<Backend*> pool,
               std::uint64_t seed = 7);

  const std::vector<Backend*>& pool() const { return pool_; }
  LbPolicy policy() const { return policy_; }

  /// Picks a backend for the request, skipping non-accepting nodes.
  /// Returns nullptr when no backend accepts. Least-loaded compares
  /// `Backend::lb_key()`, lowest pool index on ties.
  Backend* select(const workload::Request& request);

  /// Dispatches: select + submit. Returns false when no backend accepted
  /// (caller records the drop).
  bool dispatch(workload::Request&& request);

  std::uint64_t dispatched() const { return dispatched_; }

  /// Binds per-pool selection counters into `hub`'s registry (label
  /// `{"pool": pool}`, plus `{"zone": N}` when `zone >= 0`). Optional;
  /// `hub` may be null (no-op). `pool` must outlive the balancer
  /// (string literals at all call sites).
  void bind_obs(obs::Hub* hub, const char* pool, int zone = -1);

  /// Binds span emission: every `select` records an instant kLbPick span
  /// labelled with this pool (zone-stamped when `zone >= 0`). Optional;
  /// `spans` may be null (no-op). Span-only — adds no metrics, so the
  /// span-off export is unchanged.
  void bind_spans(sim::Engine* engine, obs::SpanTracer* spans,
                  const char* pool, int zone = -1);

 private:
  Backend* do_select(const workload::Request& request);

  LbPolicy policy_;
  std::vector<Backend*> pool_;
  std::size_t rr_next_ = 0;
  Rng rng_;
  std::uint64_t dispatched_ = 0;
  obs::Counter* obs_selected_ = nullptr;
  obs::Counter* obs_no_backend_ = nullptr;
  sim::Engine* span_engine_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  const char* span_pool_ = "";
  int span_zone_ = -1;
};

}  // namespace dope::net
