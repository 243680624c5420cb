#include "obs/hub.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <ostream>
#include <vector>

#include "obs/json.hpp"

namespace dope::obs {

namespace {

/// One line of the merged JSONL export. `stream` orders ties: events
/// before span begins before span ends at the same timestamp, so an
/// instant span's End always follows its Begin.
struct MergeEntry {
  Time t = 0;
  int stream = 0;  // 0 = trace event, 1 = span begin, 2 = span end
  std::size_t idx = 0;
};

/// Chrome tid for a (server, slot) service track. Slot counts are core
/// counts (tens), so 1024 slots per server keeps tids disjoint.
int service_tid(const Span& span) {
  return span.server * 1024 + span.slot + 1;
}

void write_chrome_async(std::ostream& out, bool& first, const Span& span,
                        const char* cat, const char* name) {
  char id_buf[24];
  std::snprintf(id_buf, sizeof(id_buf), "0x%" PRIx64, span.id);
  if (!first) out << ",\n";
  first = false;
  out << "{\"ph\": \"b\", \"cat\": \"" << cat
      << "\", \"id\": \"" << id_buf << "\", \"pid\": 3, \"tid\": 0, "
      << "\"ts\": " << span.begin << ", \"name\": \"" << name
      << "\", \"args\": {\"span_id\": " << span.id
      << ", \"parent\": " << span.parent
      << ", \"source_id\": " << span.source_id
      << ", \"url_class\": " << span.url_class;
  if (span.server >= 0) out << ", \"server\": " << span.server;
  out << "}}";
  if (span.open()) return;
  out << ",\n{\"ph\": \"e\", \"cat\": \"" << cat
      << "\", \"id\": \"" << id_buf << "\", \"pid\": 3, \"tid\": 0, "
      << "\"ts\": " << span.end << ", \"name\": \"" << name
      << "\", \"args\": {\"outcome\": ";
  write_json_string(out, span.outcome);
  out << "}}";
}

}  // namespace

void Hub::write_trace_jsonl(std::ostream& out) const {
  if (spans_ == nullptr) {
    trace_.write_jsonl(out);
    return;
  }

  const TraceView events = trace_.events();
  const auto& spans = spans_->spans();
  std::vector<MergeEntry> entries;
  entries.reserve(events.size() + 2 * spans.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    entries.push_back({events[i].t, 0, i});
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    entries.push_back({spans[i].begin, 1, i});
    if (!spans[i].open()) entries.push_back({spans[i].end, 2, i});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const MergeEntry& a, const MergeEntry& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return a.stream < b.stream;
                   });

  for (const MergeEntry& entry : entries) {
    switch (entry.stream) {
      case 0: write_jsonl_event(out, events[entry.idx]); break;
      case 1: write_span_begin_jsonl(out, spans[entry.idx]); break;
      default: write_span_end_jsonl(out, spans[entry.idx]); break;
    }
    out << "\n";
  }
  if (trace_.dropped() > 0) {
    out << "{\"type\": \"TraceTruncated\", \"dropped\": "
        << trace_.dropped() << ", \"cap\": " << trace_.max_events()
        << "}\n";
  }
  if (spans_->dropped() > 0) {
    out << "{\"type\": \"SpanTruncated\", \"dropped\": "
        << spans_->dropped() << ", \"cap\": " << spans_->max_spans()
        << "}\n";
  }
}

void Hub::write_chrome_trace(std::ostream& out) const {
  if (spans_ == nullptr) {
    trace_.write_chrome_trace(out);
    return;
  }

  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  trace_.write_chrome_body(out, first);

  // Span tracks. pid 1 carries the instant-event rows (above); pid 2 is
  // the per-(server, slot) occupancy tracks; pid 3 the async
  // request/queue lanes. Firewall/LB verdict spans are zero-duration
  // bookkeeping — they live in the JSONL export only.
  const auto& spans = spans_->spans();
  std::map<int, std::pair<int, int>> slot_tracks;  // tid -> (server, slot)
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kService && span.server >= 0 &&
        span.slot >= 0) {
      slot_tracks.emplace(service_tid(span),
                          std::make_pair(span.server, span.slot));
    }
  }
  const auto metadata = [&](int pid, int tid, const char* key,
                            const std::string& name) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"name\": \"" << key << "\", \"args\": {\"name\": ";
    write_json_string(out, name);
    out << "}}";
  };
  if (!slot_tracks.empty()) metadata(2, 0, "process_name", "server slots");
  metadata(3, 0, "process_name", "requests");
  for (const auto& [tid, track] : slot_tracks) {
    metadata(2, tid, "thread_name",
             "server " + std::to_string(track.first) + " slot " +
                 std::to_string(track.second));
  }

  for (const Span& span : spans) {
    switch (span.kind) {
      case SpanKind::kService: {
        // One request per slot at a time, so adjacent B/E pairs per tid
        // are correctly nested; an open span emits B only (shown as
        // "did not finish").
        if (!first) out << ",\n";
        first = false;
        out << "{\"ph\": \"B\", \"pid\": 2, \"tid\": "
            << service_tid(span) << ", \"ts\": " << span.begin
            << ", \"name\": \"service c" << span.url_class
            << "\", \"args\": {\"span_id\": " << span.id
            << ", \"parent\": " << span.parent
            << ", \"source_id\": " << span.source_id
            << ", \"url_class\": " << span.url_class
            << ", \"power_w\": ";
        write_json_number(out, span.power_w.value());
        out << "}}";
        if (!span.open()) {
          out << ",\n{\"ph\": \"E\", \"pid\": 2, \"tid\": "
              << service_tid(span) << ", \"ts\": " << span.end
              << ", \"name\": \"service c" << span.url_class
              << "\", \"args\": {\"outcome\": ";
          write_json_string(out, span.outcome);
          out << "}}";
        }
        break;
      }
      case SpanKind::kRequest:
        write_chrome_async(out, first, span, "request", "request");
        break;
      case SpanKind::kQueue:
        write_chrome_async(out, first, span, "queue", "queue");
        break;
      case SpanKind::kFirewall:
      case SpanKind::kLbPick:
        break;
    }
  }
  if (spans_->dropped() > 0) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\": \"i\", \"s\": \"g\", \"pid\": 3, \"tid\": 0, "
           "\"ts\": 0, \"name\": \"SpanTruncated\", \"args\": "
           "{\"dropped\": "
        << spans_->dropped() << "}}";
  }
  out << "\n]}\n";
}

}  // namespace dope::obs
