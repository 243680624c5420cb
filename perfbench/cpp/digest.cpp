#include "digest.hpp"

#include <cstdio>

namespace dopebench {

namespace {

void counts(Digest& d, const dope::metrics::OutcomeCounts& c) {
  d.u64(c.completed);
  d.u64(c.dropped_by_limit);
  d.u64(c.blocked_by_firewall);
  d.u64(c.rejected_queue_full);
  d.u64(c.timed_out);
  d.u64(c.failed_outage);
  d.u64(c.dropped_network);
}

void samples(Digest& d, const std::vector<dope::metrics::Sample>& v) {
  d.u64(v.size());
  for (const auto& s : v) {
    d.i64(s.t);
    d.f64(s.value);
  }
}

}  // namespace

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::uint64_t result_digest(const dope::scenario::ScenarioResult& r) {
  Digest d;
  d.str(r.scheme);
  d.f64(r.budget.value());
  for (double v : {r.mean_ms, r.p50_ms, r.p90_ms, r.p95_ms, r.p99_ms,
                   r.min_ms, r.max_ms, r.availability, r.drop_fraction,
                   r.attack_mean_ms}) {
    d.f64(v);
  }
  counts(d, r.normal_counts);
  counts(d, r.attack_counts);
  d.f64(r.mean_power.value());
  d.f64(r.peak_power.value());
  samples(d, r.power_timeline);
  d.u64(r.power_samples_normalized.size());
  for (double v : r.power_samples_normalized) d.f64(v);
  samples(d, r.battery_soc_timeline);
  d.f64(r.battery_discharged.value());
  d.f64(r.energy.utility.value());
  d.f64(r.energy.battery.value());
  d.f64(r.energy.recharge.value());
  d.u64(r.slot_stats.slots);
  d.u64(r.slot_stats.violation_slots);
  d.u64(r.slot_stats.utility_violation_slots);
  d.f64(r.slot_stats.worst_overshoot.value());
  d.u64(r.slot_stats.outages);
  d.i64(r.slot_stats.downtime);
  d.f64(r.final_mean_frequency.value());
  d.u64(r.min_level_seen);
  d.u64(r.zones.size());
  for (const auto& z : r.zones) {
    d.f64(z.budget.value());
    d.f64(z.availability);
    counts(d, z.normal_counts);
    d.u64(z.violation_slots);
    d.u64(z.min_level_seen);
    d.f64(z.final_mean_frequency.value());
    d.f64(z.load_energy.value());
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace dopebench
