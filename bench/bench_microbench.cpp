// Google-benchmark microbenchmarks of the simulator's hot paths: event
// engine throughput, server queueing, least-loaded picks, generator
// arrival scheduling, span recording, incident-time forensics, latency
// percentile summaries, and end-to-end scenario cost. These bound how
// large a cluster/window the harness can sweep.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/load_balancer.hpp"
#include "obs/forensics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "server/node.hpp"
#include "sim/engine.hpp"
#include "workload/generator.hpp"

namespace {

using namespace dope;

void BM_EngineScheduleExecute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<Time>(i % 1'000), [] {});
    }
    engine.run_all();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleExecute)->Arg(1'000)->Arg(100'000);

void BM_EngineScheduleCancelFire(benchmark::State& state) {
  // The mix every simulation layer generates: most scheduled events fire,
  // but a steady fraction (superseded DVFS actuations, retimed
  // completions, satisfied patience timers) is cancelled first.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    std::vector<sim::EventId> victims;
    victims.reserve(n / 4 + 1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<Time>(i % 1'024);
      if (i % 4 == 3) {
        victims.push_back(engine.schedule_at(t, [] {}));
      } else {
        engine.schedule_at(t, [&fired] { ++fired; });
      }
    }
    for (const auto id : victims) engine.cancel(id);
    engine.run_all();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleCancelFire)->Arg(1'000)->Arg(100'000);

void BM_EngineCompletionChains(benchmark::State& state) {
  // Steady-state schedule->fire churn: 64 concurrent chains where every
  // firing schedules its successor, the shape of server-completion and
  // generator-arrival traffic. The callback captures 24 bytes, past the
  // small-buffer threshold of libstdc++'s std::function, so this bench
  // exposes per-event heap traffic in the event core.
  constexpr std::uint64_t kChains = 64;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  struct Chain {
    sim::Engine* engine;
    std::uint64_t* remaining;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      engine->schedule_after(100, Chain{engine, remaining});
    }
  };
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t remaining = n;
    for (std::uint64_t c = 0; c < kChains; ++c) {
      engine.schedule_after(static_cast<Duration>(c + 1),
                            Chain{&engine, &remaining});
    }
    engine.run_all();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EngineCompletionChains)->Arg(100'000);

void BM_EnginePeriodicTick(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t ticks = 0;
    auto handle = engine.every(kMillisecond, [&ticks] { ++ticks; });
    engine.run_until(kSecond);
    handle.stop();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(1'000 * state.iterations());
}
BENCHMARK(BM_EnginePeriodicTick);

void BM_ServerSaturatedChurn(benchmark::State& state) {
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t done = 0;
    server::ServerNode node(
        engine, 0, catalog, power::ServerPowerModel({}, ladder),
        {.queue_capacity = 10'000, .queue_deadline = 0},
        [&done](const workload::RequestRecord&) { ++done; });
    workload::GeneratorConfig gen_config;
    gen_config.mixture =
        workload::Mixture::single(workload::Catalog::kTextCont);
    gen_config.rate_rps = 800.0;  // saturating for one node
    workload::TrafficGenerator gen(
        engine, catalog, gen_config,
        [&node](workload::Request&& r) { node.submit(std::move(r)); });
    engine.run_until(10 * kSecond);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ServerSaturatedChurn);

void BM_DvfsRetiming(benchmark::State& state) {
  // Cost of re-timing a full active set on every level change.
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  sim::Engine engine;
  server::ServerNode node(
      engine, 0, catalog, power::ServerPowerModel({}, ladder),
      {.queue_capacity = 64, .queue_deadline = 0, .dvfs_latency = 0},
      [](const workload::RequestRecord&) {});
  for (int i = 0; i < 4; ++i) {
    workload::Request r;
    r.type = workload::Catalog::kCollaFilt;
    r.size_factor = 1e6;  // effectively never finishes
    node.submit(std::move(r));
  }
  power::DvfsLevel level = 0;
  for (auto _ : state) {
    node.force_level(level);
    level = (level + 1) % ladder.levels();
    benchmark::DoNotOptimize(node.current_power());
  }
}
BENCHMARK(BM_DvfsRetiming);

void BM_LeastLoadedPick(benchmark::State& state) {
  // One least-loaded pick over a pool of real ServerNodes, the PDF pools'
  // per-request cost. Loads are spread over 1..5 by never-finishing
  // requests, so the scan sees mixed keys and no event ever fires.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto catalog = workload::Catalog::standard();
  const auto ladder = power::DvfsLadder::make();
  sim::Engine engine;
  std::vector<std::unique_ptr<server::ServerNode>> nodes;
  std::vector<net::Backend*> pool;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(std::make_unique<server::ServerNode>(
        engine, static_cast<int>(i), catalog,
        power::ServerPowerModel({}, ladder), server::ServerConfig{},
        [](const workload::RequestRecord&) {}));
    for (std::size_t r = 0; r < 1 + (i * 7) % 5; ++r) {
      workload::Request request;
      request.size_factor = 1e9;
      nodes.back()->submit(std::move(request));
    }
    pool.push_back(nodes.back().get());
  }
  net::LoadBalancer lb(net::LbPolicy::kLeastLoaded, pool);
  const workload::Request request;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb.select(request));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LeastLoadedPick)->Arg(8)->Arg(64)->Arg(512);

void BM_SpanRequestLifecycle(benchmark::State& state) {
  // The spans one forwarded request records: root begin, firewall and LB
  // instants, service begin/end, root end. Each iteration fills a fresh
  // tracer with a batch of requests, so block reservation and the first
  // touch of the log's pages are paid as a real run pays them.
  constexpr std::uint64_t kBatch = 16'384;
  std::uint64_t request = 0;
  for (auto _ : state) {
    obs::SpanTracer tracer;
    for (std::uint64_t i = 0; i < kBatch; ++i, ++request) {
      const Time t = static_cast<Time>(request) * 100;
      obs::Span root;
      root.id = obs::span_id_for(request, obs::SpanKind::kRequest);
      root.kind = obs::SpanKind::kRequest;
      root.begin = t;
      root.source_id = static_cast<std::uint32_t>(request % 320);
      tracer.begin(root);
      obs::Span child = root;
      child.parent = root.id;
      child.kind = obs::SpanKind::kFirewall;
      child.id = obs::span_id_for(request, child.kind);
      tracer.instant(child, t);
      child.kind = obs::SpanKind::kLbPick;
      child.id = obs::span_id_for(request, child.kind);
      tracer.instant(child, t);
      child.kind = obs::SpanKind::kService;
      child.id = obs::span_id_for(request, child.kind);
      child.begin = t;
      tracer.begin(child);
      tracer.end(child.id, t + 50, "completed");
      tracer.end(root.id, t + 50, "completed");
    }
    benchmark::DoNotOptimize(tracer.spans().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SpanRequestLifecycle);

void BM_TraceRecordForwarded(benchmark::State& state) {
  // Build and record one RequestForwarded-shaped event (3 numeric
  // fields, one interned string) into a recorder whose listener reads
  // the stored event back, as the flight recorder's tap does. A fresh
  // recorder per batch, so the chunk allocations are in the cost.
  constexpr std::uint64_t kBatch = 4096;
  const char* const pools[] = {"default", "pdf"};
  std::uint64_t request = 0;
  for (auto _ : state) {
    obs::TraceRecorder trace;
    double seen = 0.0;
    trace.set_listener([&seen](const obs::TraceEventRef& e) {
      if (e.type == obs::EventType::kBreakerTrip) seen += e.num[0].second;
    });
    for (std::uint64_t i = 0; i < kBatch; ++i, ++request) {
      obs::TraceEvent e;
      e.t = static_cast<Time>(request) * 100;
      e.type = obs::EventType::kRequestForwarded;
      e.source = "edge";
      e.num.emplace_back("server", static_cast<double>(request % 8));
      e.num.emplace_back("url_class", static_cast<double>(request % 5));
      e.num.emplace_back("source_id", static_cast<double>(request % 320));
      e.str.emplace_back("pool", pools[request % 16 == 0 ? 1 : 0]);
      trace.record(e);
    }
    benchmark::DoNotOptimize(seen);
    benchmark::DoNotOptimize(trace.events().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_TraceRecordForwarded);

void BM_ForensicsSnapshot(benchmark::State& state) {
  // One incident-time forensics snapshot after `Arg` spans are logged:
  // 320 sources, 3 classes, a violation every 10k spans, and 64 requests
  // still open at the capture. The closed prefix is folded once before
  // timing, so the cost should not grow with Arg.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  obs::SpanTracer spans(obs::SpanConfig{.max_spans = n + 1024});
  obs::TraceRecorder trace;
  Time t = 0;
  for (std::uint64_t request = 0; 2 * request < n; ++request, t += 100) {
    obs::Span root;
    root.id = obs::span_id_for(request, obs::SpanKind::kRequest);
    root.kind = obs::SpanKind::kRequest;
    root.begin = t;
    root.source_id = static_cast<std::uint32_t>(request % 320);
    root.url_class = static_cast<std::uint32_t>(request % 3);
    spans.begin(root);
    obs::Span service = root;
    service.parent = root.id;
    service.kind = obs::SpanKind::kService;
    service.id = obs::span_id_for(request, service.kind);
    service.power_w = Watts{10.0 + static_cast<double>(request % 7)};
    spans.begin(service);
    if (2 * request + 128 < n) {
      spans.end(service.id, t + 50, "completed");
      spans.end(root.id, t + 50, "completed");
    }
    if (request % 5000 == 0) {
      obs::TraceEvent e;
      e.t = t;
      e.type = obs::EventType::kBudgetViolation;
      trace.record(std::move(e));
    }
  }
  obs::ForensicsBuilder builder;
  builder.advance(spans, trace, t);
  for (auto _ : state) {
    const obs::Forensics f = builder.snapshot(spans, trace, t);
    benchmark::DoNotOptimize(f.total_joules());
  }
  state.counters["suffix_spans"] =
      static_cast<double>(spans.spans().size() - builder.watermark());
}
BENCHMARK(BM_ForensicsSnapshot)->Arg(10'000)->Arg(1'000'000);

void BM_PercentilesSummary(benchmark::State& state) {
  // A run's latency distribution from first sample to summary: `Arg`
  // microsecond-quantised latencies in ms (exponential, mean 20 ms) are
  // recorded, then mean, p50/p90/p95/p99, min and max are read, in the
  // order run_scenario reads them.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> latencies(n);
  Rng rng(17);
  for (double& x : latencies) {
    x = std::round(rng.exponential(20.0) * 1000.0) / 1000.0;
  }
  for (auto _ : state) {
    Percentiles latency;
    for (const double x : latencies) latency.add(x);
    double sum = latency.mean();
    for (const double p : {50.0, 90.0, 95.0, 99.0}) {
      sum += latency.percentile(p);
    }
    sum += latency.min() + latency.max();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PercentilesSummary)
    ->Arg(1'400'000)
    ->Arg(2'300'000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioMinute(benchmark::State& state) {
  // End-to-end cost of one simulated minute of the evaluation cluster.
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.scheme = scenario::SchemeKind::kAntiDope;
    config.budget = power::BudgetLevel::kLow;
    config.normal_rps = 300.0;
    config.attack_rps = 400.0;
    config.duration = kMinute;
    const auto r = scenario::run_scenario(config);
    benchmark::DoNotOptimize(r.mean_ms);
  }
}
BENCHMARK(BM_ScenarioMinute)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
