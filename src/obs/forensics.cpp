#include "obs/forensics.hpp"

#include <algorithm>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace dope::obs {

Forensics Forensics::build(const SpanTracer& spans,
                           const TraceRecorder& trace, Time horizon) {
  return ForensicsBuilder{}.snapshot(spans, trace, horizon);
}

void ForensicsBuilder::read_violations(const TraceRecorder& trace) {
  const auto& events = trace.events();
  for (; trace_cursor_ < events.size(); ++trace_cursor_) {
    const TraceEvent& e = events[trace_cursor_];
    if (e.type == EventType::kBudgetViolation) violations_.push_back(e.t);
  }
}

void ForensicsBuilder::fold(const Span& span, Time horizon) {
  const std::size_t slot = index_.insert(span.source_id, sources_.size());
  if (slot == sources_.size()) {
    sources_.emplace_back().stats.source_id = span.source_id;
  }
  SourceAccum& a = sources_[slot];
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
      const auto lo = std::lower_bound(violations_.begin(),
                                       violations_.end(), span.begin);
      const auto hi =
          std::upper_bound(violations_.begin(), violations_.end(), end);
      a.stats.violation_overlaps += static_cast<std::uint64_t>(hi - lo);
      break;
    }
    case SpanKind::kFirewall:
    case SpanKind::kLbPick:
    case SpanKind::kQueue:
      break;
  }
}

void ForensicsBuilder::advance(const SpanTracer& spans,
                               const TraceRecorder& trace, Time now) {
  read_violations(trace);
  const SpanLog& log = spans.spans();
  for (; watermark_ < log.size(); ++watermark_) {
    const Span& span = log[watermark_];
    if (span.open() || span.end >= now) break;
    latest_ = std::max({latest_, span.begin, span.end});
    fold(span, span.end);
  }
}

Forensics ForensicsBuilder::snapshot(const SpanTracer& spans,
                                     const TraceRecorder& trace,
                                     Time horizon) const {
  ForensicsBuilder b = *this;
  b.read_violations(trace);
  const SpanLog& log = spans.spans();
  if (horizon < 0) {
    horizon = std::max(horizon, latest_);
    for (std::size_t i = watermark_; i < log.size(); ++i) {
      horizon = std::max({horizon, log[i].begin, log[i].end});
    }
  }
  for (std::size_t i = watermark_; i < log.size(); ++i) {
    b.fold(log[i], horizon);
  }

  Forensics out;
  out.violation_events_ = b.violations_.size();
  out.sources_.reserve(b.sources_.size());
  for (SourceAccum& a : b.sources_) {
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
