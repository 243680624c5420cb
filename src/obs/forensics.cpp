#include "obs/forensics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace dope::obs {

Forensics Forensics::build(const SpanTracer& spans,
                           const TraceRecorder& trace, Time horizon) {
  ForensicsBuilder& builder = spans.forensics();
  builder.advance_to_log(spans, trace);
  return builder.snapshot(spans, trace, horizon);
}

void ForensicsBuilder::Rollup::read_violations(const TraceRecorder& trace) {
  const TraceView events = trace.events();
  for (; trace_cursor < events.size(); ++trace_cursor) {
    const TraceEventRef e = events[trace_cursor];
    if (e.type == EventType::kBudgetViolation) violations.push_back(e.t);
  }
}

void ForensicsBuilder::Rollup::fold(const Span& span, Time horizon) {
  if (last_source >= sources.size() ||
      sources[last_source].stats.source_id != span.source_id) {
    last_source = index.insert(span.source_id, sources.size());
    if (last_source == sources.size()) {
      sources.emplace_back().stats.source_id = span.source_id;
    }
  }
  SourceAccum& a = sources[last_source];
  const auto class_accum = [&a](std::uint32_t url_class) -> ClassAccum& {
    for (ClassAccum& c : a.classes) {
      if (c.url_class == url_class) return c;
    }
    return a.classes.emplace_back(ClassAccum{.url_class = url_class});
  };
  const auto zone_accum = [&a](std::int32_t zone) -> ZoneAccum& {
    for (ZoneAccum& z : a.zones) {
      if (z.zone == zone) return z;
    }
    return a.zones.emplace_back(ZoneAccum{.zone = zone});
  };
  switch (span.kind) {
    case SpanKind::kRequest: {
      ++a.stats.requests;
      ++class_accum(span.url_class).requests;
      if (std::string_view(span.outcome) == "completed") {
        ++a.stats.completed;
      }
      break;
    }
    case SpanKind::kService: {
      const Time end = span.open() ? horizon : span.end;
      const Duration held = std::max<Duration>(end - span.begin, 0);
      const Joules joules = span.power_w * held;
      a.stats.joules += joules;
      a.stats.occupancy_ms += to_seconds(held) * 1e3;
      class_accum(span.url_class).joules += joules;
      if (span.zone >= 0) zone_accum(span.zone).joules += joules;
      const auto lo = std::lower_bound(violations.begin(),
                                       violations.end(), span.begin);
      const auto hi =
          std::upper_bound(violations.begin(), violations.end(), end);
      a.stats.violation_overlaps += static_cast<std::uint64_t>(hi - lo);
      break;
    }
    case SpanKind::kFirewall:
    case SpanKind::kLbPick:
    case SpanKind::kQueue:
      break;
  }
}

void ForensicsBuilder::add_slo_sample(std::vector<SloAccum>& classes,
                                      const Span& span) {
  auto it = std::find_if(
      classes.begin(), classes.end(),
      [&span](const SloAccum& c) { return c.url_class == span.url_class; });
  if (it == classes.end()) {
    it = classes.insert(it, SloAccum{.url_class = span.url_class});
  }
  const bool completed = std::string_view(span.outcome) == "completed";
  it->samples.push_back(static_cast<std::uint64_t>(span.end - span.begin)
                            << 1 |
                        (completed ? 0u : 1u));
}

namespace {

double sample_ms(std::uint64_t sample) {
  return static_cast<double>(sample >> 1) / 1000.0;
}

}  // namespace

void ForensicsBuilder::advance(const SpanTracer& spans,
                               const TraceRecorder& trace, Time now) {
  if (!reads(trace)) *this = ForensicsBuilder{};
  trace_ = &trace;
  rollup_.read_violations(trace);
  const SpanLog& log = spans.spans();
  for (; watermark_ < log.size(); ++watermark_) {
    const Span& span = log[watermark_];
    if (span.open() || span.end >= now) break;
    rollup_.latest = std::max({rollup_.latest, span.begin, span.end});
    rollup_.fold(span, span.end);
    if (span.kind == SpanKind::kRequest) add_slo_sample(slo_, span);
  }
}

void ForensicsBuilder::advance_to_log(const SpanTracer& spans,
                                      const TraceRecorder& trace) {
  const SpanLog& log = spans.spans();
  if (log.size() == 0) return;
  advance(spans, trace, log[log.size() - 1].begin);
}

Forensics ForensicsBuilder::snapshot(const SpanTracer& spans,
                                     const TraceRecorder& trace,
                                     Time horizon) const {
  if (!reads(trace)) return ForensicsBuilder{}.snapshot(spans, trace, horizon);
  Rollup r = rollup_;
  r.read_violations(trace);
  const SpanLog& log = spans.spans();
  if (horizon < 0) {
    horizon = std::max(horizon, r.latest);
    for (std::size_t i = watermark_; i < log.size(); ++i) {
      horizon = std::max({horizon, log[i].begin, log[i].end});
    }
  }
  for (std::size_t i = watermark_; i < log.size(); ++i) {
    r.fold(log[i], horizon);
  }
  return finish(r);
}

Forensics ForensicsBuilder::finish(Rollup& r) {
  Forensics out;
  out.violation_events_ = r.violations.size();
  out.sources_.reserve(r.sources.size());
  for (SourceAccum& a : r.sources) {
    // Dominant class: by joules when the source reached a slot at all,
    // by request count otherwise. Class order makes ties break to the
    // lower class id.
    std::sort(a.classes.begin(), a.classes.end(),
              [](const ClassAccum& x, const ClassAccum& y) {
                return x.url_class < y.url_class;
              });
    Joules best_j{0.0};
    for (const ClassAccum& c : a.classes) {
      if (c.joules > best_j) {
        best_j = c.joules;
        a.stats.dominant_class = c.url_class;
      }
    }
    if (best_j <= Joules{0.0}) {
      std::uint64_t best_n = 0;
      for (const ClassAccum& c : a.classes) {
        if (c.requests > best_n) {
          best_n = c.requests;
          a.stats.dominant_class = c.url_class;
        }
      }
    }
    // Dominant zone mirrors the class logic (joules only — a request
    // that never reached a slot has no zone attribution); ties break to
    // the lower zone index.
    std::sort(a.zones.begin(), a.zones.end(),
              [](const ZoneAccum& x, const ZoneAccum& y) {
                return x.zone < y.zone;
              });
    Joules best_zone_j{0.0};
    for (const ZoneAccum& z : a.zones) {
      if (z.joules > best_zone_j) {
        best_zone_j = z.joules;
        a.stats.dominant_zone = z.zone;
      }
    }
    out.sources_.push_back(a.stats);
  }
  std::sort(out.sources_.begin(), out.sources_.end(),
            [](const SourceStats& x, const SourceStats& y) {
              return x.source_id < y.source_id;
            });
  for (const SourceStats& s : out.sources_) {
    out.total_joules_ += s.joules;
  }
  return out;
}

std::vector<SloClass> ForensicsBuilder::slo(const SpanTracer& spans,
                                            double objective_ms) const {
  std::vector<SloAccum> classes = slo_;
  const SpanLog& log = spans.spans();
  for (std::size_t i = watermark_; i < log.size(); ++i) {
    const Span& span = log[i];
    if (span.kind == SpanKind::kRequest && !span.open()) {
      add_slo_sample(classes, span);
    }
  }
  std::sort(classes.begin(), classes.end(),
            [](const SloAccum& x, const SloAccum& y) {
              return x.url_class < y.url_class;
            });

  std::vector<SloClass> out;
  out.reserve(classes.size());
  for (SloAccum& c : classes) {
    std::vector<std::uint64_t>& v = c.samples;
    SloClass& s = out.emplace_back(SloClass{.url_class = c.url_class});
    s.requests = v.size();
    for (const std::uint64_t sample : v) {
      const bool failed = (sample & 1u) != 0;
      if (!failed) ++s.completed;
      if (failed || sample_ms(sample) > objective_ms) ++s.breaches;
    }
    // Nearest rank: the ceil(p/100 * n)-th smallest latency. Each is
    // one order statistic, found by selection; the ranks ascend, so
    // each selection only searches above the previous one.
    auto from = v.begin();
    const auto percentile = [&v, &from](double p) {
      const double rank =
          std::ceil(p / 100.0 * static_cast<double>(v.size()));
      const auto idx = static_cast<std::ptrdiff_t>(std::clamp(
          rank - 1.0, 0.0, static_cast<double>(v.size()) - 1.0));
      const auto nth = v.begin() + idx;
      std::nth_element(from, nth, v.end());
      from = nth;
      return sample_ms(*nth);
    };
    s.p50_ms = percentile(50);
    s.p95_ms = percentile(95);
    s.p99_ms = percentile(99);
  }
  return out;
}

std::vector<SourceStats> Forensics::top_by_joules(std::size_t k) const {
  std::vector<SourceStats> ranked = sources_;
  std::sort(ranked.begin(), ranked.end(),
            [](const SourceStats& a, const SourceStats& b) {
              if (a.joules > b.joules) return true;
              if (a.joules < b.joules) return false;
              return a.source_id < b.source_id;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void Forensics::write_json(std::ostream& out) const {
  out << "{\n  \"total_joules\": ";
  write_json_number(out, total_joules_.value());
  out << ",\n  \"violation_events\": " << violation_events_
      << ",\n  \"sources\": " << sources_.size() << ",\n  \"ranking\": [";
  const auto ranked = top_by_joules(sources_.size());
  bool first = true;
  for (const SourceStats& s : ranked) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"source_id\": " << s.source_id
        << ", \"requests\": " << s.requests
        << ", \"completed\": " << s.completed << ", \"joules\": ";
    write_json_number(out, s.joules.value());
    out << ", \"occupancy_ms\": ";
    write_json_number(out, s.occupancy_ms);
    out << ", \"violation_overlaps\": " << s.violation_overlaps
        << ", \"dominant_class\": " << s.dominant_class;
    // Emitted only for zoned (multi-zone) runs, so standalone-cluster
    // forensics exports stay byte-identical.
    if (s.dominant_zone >= 0) {
      out << ", \"dominant_zone\": " << s.dominant_zone;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace dope::obs
