#include "obs/span.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

#include "obs/forensics.hpp"
#include "obs/json.hpp"

namespace dope::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kFirewall: return "firewall";
    case SpanKind::kLbPick: return "lb_pick";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kService: return "service";
  }
  return "?";
}

SpanTracer::SpanTracer(SpanConfig config) : config_(config) {}

SpanTracer::~SpanTracer() = default;

ForensicsBuilder& SpanTracer::forensics() const {
  if (forensics_ == nullptr) {
    forensics_ = std::make_unique<ForensicsBuilder>();
  }
  return *forensics_;
}

void SpanTracer::begin(Span span) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.end = -1;
  open_.assign(span.id, spans_.size());
  spans_.push_back(span);
}

void SpanTracer::end(std::uint64_t id, Time t, const char* outcome) {
  const std::size_t index = open_.take(id);
  if (index == FlatIndex::kNone) {
    ++unmatched_ends_;
    return;
  }
  Span& span = spans_[index];
  span.end = t;
  span.outcome = outcome;
}

void SpanTracer::instant(Span span, Time t) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(span.kind)];
  if (spans_.size() >= config_.max_spans) return;
  span.begin = t;
  span.end = t;
  spans_.push_back(span);
}

void write_span_begin_jsonl(std::ostream& out, const Span& span) {
  out << "{\"t_us\": " << span.begin << ", \"t_s\": ";
  write_json_number(out, to_seconds(span.begin));
  out << ", \"type\": \"SpanBegin\", \"source\": \"span\", \"span_id\": "
      << span.id << ", \"parent\": " << span.parent << ", \"kind\": ";
  write_json_string(out, span_kind_name(span.kind));
  out << ", \"source_id\": " << span.source_id
      << ", \"url_class\": " << span.url_class;
  if (span.server >= 0) out << ", \"server\": " << span.server;
  if (span.slot >= 0) out << ", \"slot\": " << span.slot;
  if (span.zone >= 0) out << ", \"zone\": " << span.zone;
  if (span.power_w > Watts{0.0}) {
    out << ", \"power_w\": ";
    write_json_number(out, span.power_w.value());
  }
  if (span.label[0] != '\0') {
    out << ", \"label\": ";
    write_json_string(out, span.label);
  }
  out << "}";
}

void write_span_end_jsonl(std::ostream& out, const Span& span) {
  out << "{\"t_us\": " << span.end << ", \"t_s\": ";
  write_json_number(out, to_seconds(span.end));
  out << ", \"type\": \"SpanEnd\", \"source\": \"span\", \"span_id\": "
      << span.id << ", \"kind\": ";
  write_json_string(out, span_kind_name(span.kind));
  out << ", \"outcome\": ";
  write_json_string(out, span.outcome);
  out << "}";
}

void SpanTracer::write_jsonl(std::ostream& out) const {
  // Begins are recorded in time order; ends are not (a long span closes
  // after later short ones), so sort the closed ends and merge the two
  // streams, keeping t_us monotone. At equal t, begins precede ends.
  std::vector<std::pair<Time, const Span*>> ends;
  ends.reserve(spans_.size());
  for (const Span& span : spans_) {
    if (!span.open()) ends.emplace_back(span.end, &span);
  }
  std::stable_sort(
      ends.begin(), ends.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t e = 0;
  for (const Span& span : spans_) {
    while (e < ends.size() && ends[e].first < span.begin) {
      write_span_end_jsonl(out, *ends[e++].second);
      out << "\n";
    }
    write_span_begin_jsonl(out, span);
    out << "\n";
  }
  while (e < ends.size()) {
    write_span_end_jsonl(out, *ends[e++].second);
    out << "\n";
  }
  if (dropped() > 0) {
    out << "{\"type\": \"SpanTruncated\", \"dropped\": " << dropped()
        << ", \"cap\": " << config_.max_spans << "}\n";
  }
}

}  // namespace dope::obs
