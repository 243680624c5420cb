// Differential tests of the published least-loaded key: real ServerNodes
// driven through random submit / completion / timeout / park / power /
// drain sequences must always publish `accepting() ? load() : kRefusing`,
// and a least-loaded pick over them must equal a reference scan of the
// two virtuals, including picks made from inside a record sink.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "net/backend.hpp"
#include "net/load_balancer.hpp"
#include "power/power_model.hpp"
#include "server/node.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"

namespace dope {
namespace {

using net::Backend;
using net::LbPolicy;
using net::LoadBalancer;
using server::ServerConfig;
using server::ServerNode;
using workload::Catalog;
using workload::Request;
using workload::RequestRecord;

/// A backend that never publishes its key, so `lb_key()` takes the
/// virtual-call fallback.
class PlainBackend final : public Backend {
 public:
  explicit PlainBackend(int id) : id_(id) {}
  int backend_id() const override { return id_; }
  std::size_t load() const override { return load_; }
  bool accepting() const override { return accepting_; }
  void submit(Request&&) override { ++load_; }

  void set_load(std::size_t l) { load_ = l; }
  void set_accepting(bool a) { accepting_ = a; }

 private:
  int id_;
  std::size_t load_ = 0;
  bool accepting_ = true;
};

std::uint32_t reference_key(const Backend& b) {
  return b.accepting() ? static_cast<std::uint32_t>(b.load())
                       : Backend::kRefusing;
}

/// The least-loaded pick defined on the two virtuals: skip non-accepting
/// backends, lowest load wins, lowest index on ties.
Backend* reference_pick(const std::vector<Backend*>& pool) {
  Backend* best = nullptr;
  for (Backend* b : pool) {
    if (!b->accepting()) continue;
    if (best == nullptr || b->load() < best->load()) best = b;
  }
  return best;
}

class LbKeyTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 6;

  sim::Engine engine_;
  Catalog catalog_ = Catalog::standard();
  power::DvfsLadder ladder_ = power::DvfsLadder::make();
  std::vector<std::unique_ptr<ServerNode>> nodes_;
  std::vector<Backend*> pool_;
  std::unique_ptr<LoadBalancer> lb_;
  std::uint64_t checks_in_sink_ = 0;
  std::uint64_t next_id_ = 1;

  void build(ServerConfig config) {
    for (int i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<ServerNode>(
          engine_, i, catalog_, power::ServerPowerModel({}, ladder_),
          config, [this](const RequestRecord&) {
            // Picks made while a node is emitting must see its new state.
            check_all();
            ++checks_in_sink_;
          }));
      pool_.push_back(nodes_.back().get());
    }
    lb_ = std::make_unique<LoadBalancer>(LbPolicy::kLeastLoaded, pool_);
  }

  void check_all() {
    if (lb_ == nullptr) return;
    for (const auto& n : nodes_) {
      ASSERT_EQ(n->lb_key(), reference_key(*n)) << "node " << n->backend_id();
    }
    const Request probe;
    ASSERT_EQ(lb_->select(probe), reference_pick(pool_));
  }

  Request request(Rng& rng) {
    Request r;
    r.id = next_id_++;
    r.type = static_cast<workload::RequestTypeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog_.size()) - 1));
    r.arrival = engine_.now();
    r.size_factor = 0.2 + 2.0 * rng.uniform();
    return r;
  }

  /// One random operation on the pool.
  void random_step(Rng& rng) {
    ServerNode& node = *nodes_[static_cast<std::size_t>(
        rng.uniform_int(0, kNodes - 1))];
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1:
      case 2:
        // Balanced arrival (a drop when nobody accepts).
        lb_->dispatch(request(rng));
        break;
      case 3:
        // Direct arrival: skews loads so picks are not all ties.
        if (node.accepting()) node.submit(request(rng));
        break;
      case 4:
      case 5: {
        // Completions, wake-ups and DVFS actuations, one event at a time.
        const auto events = rng.uniform_int(1, 8);
        for (std::int64_t e = 0; e < events && engine_.step(); ++e) {
          check_all();
        }
        break;
      }
      case 6:
        if (node.powered_off()) break;
        if (node.load() == 0 && rng.uniform() < 0.5) {
          node.park();
        } else {
          node.unpark();
        }
        break;
      case 7:
        if (node.powered_off()) {
          node.power_on(static_cast<Duration>(rng.uniform_int(0, 3)) *
                        kMillisecond);
        } else if (rng.uniform() < 0.3) {
          node.power_off();
        }
        break;
      case 8:
        node.set_accepting(rng.uniform() < 0.7);
        break;
      default:
        node.request_level(static_cast<power::DvfsLevel>(rng.uniform_int(
            0, static_cast<std::int64_t>(ladder_.levels()) - 1)));
        break;
    }
  }
};

TEST_F(LbKeyTest, PublishedKeyAndPickMatchReferenceUnderRandomOps) {
  // Tiny queue and deadline so rejections and queue timeouts fire; short
  // wake and DVFS latencies so park/unpark and actuation events land
  // inside the run.
  build({.queue_capacity = 3,
         .queue_deadline = 30 * kMillisecond,
         .dvfs_latency = kMillisecond,
         .wake_latency = 2 * kMillisecond});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (int step = 0; step < 600; ++step) {
      random_step(rng);
      check_all();
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }
  EXPECT_GT(checks_in_sink_, 1'000u);
  std::uint64_t timed_out = 0;
  std::uint64_t rejected = 0;
  for (const auto& n : nodes_) {
    timed_out += n->counters().timed_out;
    rejected += n->counters().rejected_queue_full;
  }
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST_F(LbKeyTest, SinkPickSeesEmittingNodeState) {
  // Pool {emitter, busy}. `busy` holds one long request (load 1). The
  // emitter holds two short ones (load 2); when the first completes, its
  // record is emitted with the emitter at load 1. A pick from inside
  // that sink ties at 1 and must go to the emitter (lowest index). A key
  // republished only after the emit would still read 2 and pick `busy`.
  std::vector<Backend*> picked;
  ServerNode emitter(engine_, 0, catalog_,
                     power::ServerPowerModel({}, ladder_), ServerConfig{},
                     [&](const RequestRecord&) {
                       const Request probe;
                       picked.push_back(lb_->select(probe));
                     });
  ServerNode busy(engine_, 1, catalog_, power::ServerPowerModel({}, ladder_),
                  ServerConfig{.queue_deadline = 0},
                  [](const RequestRecord&) {});
  pool_ = {&emitter, &busy};
  lb_ = std::make_unique<LoadBalancer>(LbPolicy::kLeastLoaded, pool_);
  Request slow;
  slow.type = Catalog::kTextCont;
  slow.size_factor = 1e6;
  busy.submit(std::move(slow));
  for (double size : {1.0, 2.0}) {
    Request quick;
    quick.type = Catalog::kTextCont;
    quick.size_factor = size;
    emitter.submit(std::move(quick));
  }
  engine_.run_until(kSecond);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], &emitter);  // tie at load 1
  EXPECT_EQ(picked[1], &emitter);  // emitter idle
}

TEST(LbKey, MixedPublishingAndPlainPoolMatchesReference) {
  sim::Engine engine;
  const Catalog catalog = Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<std::unique_ptr<PlainBackend>> plain;
  std::vector<Backend*> pool;
  for (int i = 0; i < 4; ++i) {
    plain.push_back(std::make_unique<PlainBackend>(2 * i));
    pool.push_back(plain.back().get());
    servers.push_back(std::make_unique<ServerNode>(
        engine, 2 * i + 1, catalog, power::ServerPowerModel({}, ladder),
        ServerConfig{.queue_deadline = 0},
        [](const RequestRecord&) {}));
    pool.push_back(servers.back().get());
  }
  LoadBalancer lb(LbPolicy::kLeastLoaded, pool);
  Rng rng(11);
  for (int step = 0; step < 2'000; ++step) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        lb.dispatch(Request{});
        break;
      case 1:
        plain[static_cast<std::size_t>(rng.uniform_int(0, 3))]->set_load(
            static_cast<std::size_t>(rng.uniform_int(0, 12)));
        break;
      case 2:
        plain[static_cast<std::size_t>(rng.uniform_int(0, 3))]
            ->set_accepting(rng.uniform() < 0.7);
        break;
      case 3:
        servers[static_cast<std::size_t>(rng.uniform_int(0, 3))]
            ->set_accepting(rng.uniform() < 0.7);
        break;
      default:
        engine.step();
        break;
    }
    for (const Backend* b : pool) ASSERT_EQ(b->lb_key(), reference_key(*b));
    const Request probe;
    ASSERT_EQ(lb.select(probe), reference_pick(pool)) << "step " << step;
  }
}

TEST(LbKey, PlainBackendFallbackComputesKey) {
  PlainBackend b(0);
  b.set_load(5);
  EXPECT_EQ(b.lb_key(), 5u);
  b.set_accepting(false);
  EXPECT_EQ(b.lb_key(), Backend::kRefusing);
}

TEST(LbKey, RejectsQueueCapacityReachingRefusingKey) {
  sim::Engine engine;
  const Catalog catalog = Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  const auto make = [&](std::size_t capacity) {
    return std::make_unique<ServerNode>(
        engine, 0, catalog, power::ServerPowerModel({}, ladder),
        ServerConfig{.queue_capacity = capacity},
        [](const RequestRecord&) {});
  };
  // 4 cores: the largest load is 4 + capacity, which must stay below
  // kRefusing.
  EXPECT_THROW(make(Backend::kRefusing), std::invalid_argument);
  EXPECT_THROW(make(std::size_t{Backend::kRefusing} - 4),
               std::invalid_argument);
  EXPECT_NO_THROW(make(std::size_t{Backend::kRefusing} - 5));
}

}  // namespace
}  // namespace dope
