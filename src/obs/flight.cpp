#include "obs/flight.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/json.hpp"

namespace dope::obs {

namespace {

/// Deterministic short rendering for detail strings.
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Payload lookup in a trace event's numeric fields.
bool find_num(const TraceEventRef& e, std::string_view key, double* out) {
  for (const auto& [k, v] : e.num) {
    if (key == k) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::string find_str(const TraceEventRef& e, std::string_view key) {
  for (const auto& [k, v] : e.str) {
    if (key == k) return std::string(v);
  }
  return {};
}

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig config,
                               const TimeSeriesStore* store,
                               const TraceRecorder* trace,
                               const SpanTracer* spans)
    : config_(config), store_(store), trace_(trace), spans_(spans) {}

void FlightRecorder::set_run_context(FlightRunContext context) {
  context_ = std::move(context);
}

void FlightRecorder::set_suspect_classes(
    std::vector<std::uint32_t> classes) {
  suspect_classes_ = std::move(classes);
}

void FlightRecorder::on_trace_event(const TraceEventRef& e) {
  switch (e.type) {
    case EventType::kBreakerTrip: {
      if (!config_.on_breaker_trip) return;
      double zone = -1.0;
      find_num(e, "zone", &zone);
      double utility = 0.0;
      double rated = 0.0;
      std::string detail = e.source;
      if (find_num(e, "utility_w", &utility) &&
          find_num(e, "rated_w", &rated)) {
        detail += " utility_w=" + format_value(utility) +
                  " rated_w=" + format_value(rated);
      }
      capture(e.t, "BreakerTrip", detail, static_cast<int>(zone));
      return;
    }
    case EventType::kBudgetViolation: {
      if (!config_.on_budget_violation) return;
      double zone = -1.0;
      find_num(e, "zone", &zone);
      const int z = static_cast<int>(zone);
      const std::int64_t slot_idx =
          context_.slot > 0 ? e.t / context_.slot : e.t;
      // A violation one slot after the previous one (same zone) is the
      // same incident still burning, not a new onset.
      const auto it = last_violation_slot_.find(z);
      const bool onset =
          it == last_violation_slot_.end() || it->second < slot_idx - 1;
      last_violation_slot_[z] = slot_idx;
      if (!onset) return;
      double overshoot = 0.0;
      find_num(e, "overshoot_w", &overshoot);
      capture(e.t, "BudgetViolation",
              "overshoot_w=" + format_value(overshoot), z);
      return;
    }
    case EventType::kAlertRaised: {
      if (!config_.on_alert_raised) return;
      double zone = -1.0;
      find_num(e, "zone", &zone);
      capture(e.t, "AlertRaised", find_str(e, "rule"),
              static_cast<int>(zone));
      return;
    }
    default:
      return;
  }
}

void FlightRecorder::on_audit_failure(Time t, std::string_view check,
                                      std::string_view message) {
  if (!config_.on_audit_failure) return;
  std::string detail(check);
  if (!message.empty()) {
    detail += ": ";
    detail += message;
  }
  capture(t < 0 ? 0 : t, "AuditFailure", detail, -1);
}

void FlightRecorder::dump_now(Time t, std::string_view reason) {
  capture(t, "ManualDump", std::string(reason), -1);
}

void FlightRecorder::capture(Time t, const char* trigger,
                             const std::string& detail, int zone) {
  const std::int64_t slot_idx = context_.slot > 0 ? t / context_.slot : t;
  if (last_capture_slot_ >= 0 && slot_idx == last_capture_slot_) {
    ++deduped_;
    return;
  }
  last_capture_slot_ = slot_idx;
  ++triggers_;
  if (incidents_.size() >= config_.max_incidents) {
    ++dropped_;
    return;
  }

  std::ostringstream out;
  out << "{\n      \"id\": " << (incidents_.size() + 1)
      << ",\n      \"t_us\": " << t << ", \"t_s\": ";
  write_json_number(out, to_seconds(t));
  out << ", \"slot_index\": " << slot_idx << ",\n      \"trigger\": ";
  write_json_string(out, trigger);
  out << ", \"detail\": ";
  write_json_string(out, detail);
  out << ", \"zone\": " << zone;

  out << ",\n      \"series\": ";
  if (store_ != nullptr) {
    store_->write_json(out);
  } else {
    out << "{}";
  }

  out << ",\n      \"trace_tail\": [";
  if (trace_ != nullptr) {
    const TraceView events = trace_->events();
    const std::size_t n = std::min(config_.trace_tail, events.size());
    for (std::size_t k = events.size() - n; k < events.size(); ++k) {
      if (k > events.size() - n) out << ',';
      out << "\n        ";
      write_jsonl_event(out, events[k]);
    }
    if (n > 0) out << "\n      ";
  }
  out << ']';

  // Fold the spans that closed since the last capture; everything
  // below the watermark is closed, so the open-span scan starts there.
  if (spans_ != nullptr && trace_ != nullptr) {
    spans_->forensics().advance(*spans_, *trace_, t);
  }

  out << ",\n      \"open_spans\": [";
  std::size_t open_total = 0;
  if (spans_ != nullptr) {
    const SpanLog& log = spans_->spans();
    std::size_t listed = 0;
    for (std::size_t i = spans_->forensics().watermark(); i < log.size();
         ++i) {
      const Span& span = log[i];
      if (!span.open()) continue;
      ++open_total;
      if (listed >= config_.open_span_cap) continue;
      if (listed > 0) out << ',';
      out << "\n        ";
      write_span_begin_jsonl(out, span);
      ++listed;
    }
    if (listed > 0) out << "\n      ";
  }
  out << "], \"open_span_count\": " << open_total;

  out << ",\n      \"forensics\": ";
  if (spans_ != nullptr && trace_ != nullptr) {
    const Forensics forensics =
        spans_->forensics().snapshot(*spans_, *trace_, t);
    out << "{\"total_joules\": ";
    write_json_number(out, forensics.total_joules().value());
    out << ", \"violation_events\": " << forensics.violation_events()
        << ", \"suspects\": [";
    const std::vector<SourceStats> top =
        forensics.top_by_joules(config_.forensics_top_k);
    for (std::size_t i = 0; i < top.size(); ++i) {
      const SourceStats& s = top[i];
      if (i > 0) out << ',';
      const bool suspicious =
          std::find(suspect_classes_.begin(), suspect_classes_.end(),
                    s.dominant_class) != suspect_classes_.end();
      out << "\n        {\"source_id\": " << s.source_id
          << ", \"requests\": " << s.requests
          << ", \"completed\": " << s.completed << ", \"joules\": ";
      write_json_number(out, s.joules.value());
      out << ", \"occupancy_ms\": ";
      write_json_number(out, s.occupancy_ms);
      out << ", \"violation_overlaps\": " << s.violation_overlaps
          << ", \"dominant_class\": " << s.dominant_class
          << ", \"dominant_zone\": " << s.dominant_zone
          << ", \"suspicious\": " << (suspicious ? "true" : "false")
          << '}';
    }
    if (!top.empty()) out << "\n      ";
    out << "]}";
  } else {
    out << "null";
  }
  out << "\n    }";
  incidents_.push_back(out.str());
}

void FlightRecorder::write_slo_json(std::ostream& out) const {
  if (spans_ == nullptr) {
    out << "null";
    return;
  }
  // Per-URL-class latency + completion rollup over closed root request
  // spans, from the span log's one forensics fold.
  ForensicsBuilder& builder = spans_->forensics();
  if (trace_ != nullptr) builder.advance_to_log(*spans_, *trace_);
  const std::vector<SloClass> classes =
      builder.slo(*spans_, config_.slo_latency_ms);
  out << "{\"objective_ms\": ";
  write_json_number(out, config_.slo_latency_ms);
  out << ", \"error_budget\": ";
  write_json_number(out, config_.slo_error_budget);
  out << ", \"classes\": [";
  bool first = true;
  for (const SloClass& c : classes) {
    if (!first) out << ',';
    first = false;
    const double requests = static_cast<double>(c.requests);
    const double breach_rate =
        c.requests ? static_cast<double>(c.breaches) / requests : 0.0;
    const double burn = config_.slo_error_budget > 0.0
                            ? breach_rate / config_.slo_error_budget
                            : 0.0;
    out << "\n    {\"url_class\": " << c.url_class
        << ", \"requests\": " << c.requests
        << ", \"completed\": " << c.completed
        << ", \"breaches\": " << c.breaches << ", \"p50_ms\": ";
    write_json_number(out, c.p50_ms);
    out << ", \"p95_ms\": ";
    write_json_number(out, c.p95_ms);
    out << ", \"p99_ms\": ";
    write_json_number(out, c.p99_ms);
    out << ", \"compliance\": ";
    write_json_number(out, 1.0 - breach_rate);
    out << ", \"burn_rate\": ";
    write_json_number(out, burn);
    out << '}';
  }
  if (!classes.empty()) out << "\n  ";
  out << "]}";
}

void FlightRecorder::write_json(std::ostream& out) const {
  out << "{\n  \"dope_incident_bundle\": 1,\n  \"run\": {\"seed\": ";
  // Seed as a decimal string: JSON readers that funnel numbers through
  // a double would corrupt seeds above 2^53.
  char seed_buf[24];
  std::snprintf(seed_buf, sizeof(seed_buf), "\"%" PRIu64 "\"",
                context_.seed);
  out << seed_buf;
  out << ", \"scheme\": ";
  write_json_string(out, context_.scheme);
  out << ", \"slot_us\": " << context_.slot
      << ", \"duration_us\": " << context_.duration << ", \"label\": ";
  write_json_string(out, context_.label);
  out << "},\n  \"triggers\": " << triggers_
      << ", \"deduped\": " << deduped_ << ", \"dropped\": " << dropped_
      << ",\n  \"slo\": ";
  write_slo_json(out);
  out << ",\n  \"incidents\": [";
  for (std::size_t i = 0; i < incidents_.size(); ++i) {
    if (i > 0) out << ',';
    out << "\n    " << incidents_[i];
  }
  if (dropped_ > 0) {
    if (!incidents_.empty()) out << ',';
    out << "\n    {\"type\": \"IncidentTruncated\", \"dropped\": "
        << dropped_ << ", \"cap\": " << config_.max_incidents << '}';
  }
  if (!incidents_.empty() || dropped_ > 0) out << "\n  ";
  out << "]\n}\n";
}

}  // namespace dope::obs
