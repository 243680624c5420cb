// Allocation fence for observability recording.
//
// A full obs hub (spans, time series, flight recorder, default alert
// rules) records a root span, verdict instants, a service span and one
// `RequestForwarded` trace event per request. What that costs on the heap
// per request is a deterministic proxy for the recording cost, so it is
// asserted here instead of inferred from wall time. Trace events carry
// their payload inline and are packed into 64 KiB chunks, and spans into
// fixed blocks, so steady-state recording allocates nothing per event;
// what is left (about 0.1 per request) is chunk, block and open-span
// table growth. The bound sits above that figure: per-event payload
// vectors put it back above 2, a node-per-open-span table near 6.
//
// This binary replaces the global allocator with a counting one, the
// same idiom as tests/inline_function_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/hub.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "workload/catalog.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dope::obs {
namespace {

/// The paper's Fig. 15 operating point on 8 servers (Anti-DOPE, 440 W,
/// heavy-blend flood), shortened to a minute with the flood from 20 s.
scenario::ScenarioConfig fig15_minute() {
  scenario::ScenarioConfig c;
  c.scheme = scenario::SchemeKind::kAntiDope;
  c.num_servers = 8;
  c.budget_override = Watts{440.0};
  c.normal_rps = 300.0;
  c.normal_sources = 256;
  c.attack_rps = 400.0;
  c.attack_mixture = workload::Mixture(
      {workload::Catalog::kCollaFilt, workload::Catalog::kKMeans,
       workload::Catalog::kWordCount},
      {1.0, 1.0, 1.0});
  c.attack_agents = 64;
  c.attack_start = 20 * kSecond;
  c.duration = kMinute;
  c.seed = 3;
  c.default_alert_rules = true;
  return c;
}

TEST(ObsAlloc, FullHubAllocationsPerRequestStayBounded) {
  Hub hub(HubConfig{.enable_spans = true,
                    .enable_timeseries = true,
                    .enable_flight = true});
  auto config = fig15_minute();
  config.obs = &hub;

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  const auto result = scenario::run_scenario(config);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  // Every generated request opens exactly one root span.
  const std::uint64_t requests = hub.spans()->count(SpanKind::kRequest);
  ASSERT_GT(requests, 20'000u);
  // The run really exercised the capture path.
  ASSERT_GT(result.slot_stats.violation_slots, 0u);
  ASSERT_GT(hub.flight()->incident_count(), 0u);

  const double per_request =
      static_cast<double>(allocations) / static_cast<double>(requests);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LT(per_request, 0.25) << allocations << " allocations for "
                              << requests << " requests";
}

TEST(ObsAlloc, TraceStorageIsAllocatedOnFirstRecordOnly) {
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  TraceRecorder trace;
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
      << "an idle recorder holds no storage";

  // 1000 RequestForwarded-shaped events (88 B each): two chunks and
  // their vector's growth, one index block and its vector, and the
  // interned "default" value (list node, set node, buckets). Nothing
  // per event.
  before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    TraceEvent e;
    e.t = i;
    e.type = EventType::kRequestForwarded;
    e.source = "edge";
    e.num.emplace_back("server", i % 8);
    e.num.emplace_back("url_class", i % 5);
    e.num.emplace_back("source_id", i);
    e.str.emplace_back("pool", "default");
    trace.record(e);
  }
  EXPECT_LE(g_allocations.load(std::memory_order_relaxed) - before, 10u);
  EXPECT_EQ(trace.events().size(), 1000u);
}

}  // namespace
}  // namespace dope::obs
