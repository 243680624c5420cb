#include "obs/trace.hpp"

#include <array>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <string_view>

#include "obs/json.hpp"

namespace dope::obs {

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kRequestForwarded: return "RequestForwarded";
    case EventType::kRequestDropped: return "RequestDropped";
    case EventType::kBudgetViolation: return "BudgetViolation";
    case EventType::kLevelViolation: return "LevelViolation";
    case EventType::kThrottleApplied: return "ThrottleApplied";
    case EventType::kBatteryDischarge: return "BatteryDischarge";
    case EventType::kBatteryCharge: return "BatteryCharge";
    case EventType::kBreakerTrip: return "BreakerTrip";
    case EventType::kOutageEnd: return "OutageEnd";
    case EventType::kFirewallBan: return "FirewallBan";
    case EventType::kAttackPhase: return "AttackPhase";
    case EventType::kAlertRaised: return "AlertRaised";
    case EventType::kAlertCleared: return "AlertCleared";
  }
  return "?";
}

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {}

void TraceRecorder::record(const TraceEvent& event) {
  ++recorded_;
  ++counts_[static_cast<std::size_t>(event.type)];
  const bool stored = size_ < config_.max_events;
  if (stored) store(event);
  if (!listener_) return;
  if (stored) {
    listener_(at(size_ - 1));
  } else {
    listener_(event);
  }
}

std::string_view TraceRecorder::intern(std::string_view value) {
  const auto it = intern_index_.find(value);
  if (it != intern_index_.end()) return *it;
  const std::string& owned = interned_.emplace_front(value);
  intern_index_.insert(owned);
  return owned;
}

void TraceRecorder::store(const TraceEvent& event) {
  static_assert(sizeof(Header) % kWord == 0 &&
                sizeof(NumField) % kWord == 0 &&
                sizeof(StrField) % kWord == 0);
  // Everything that can throw happens before the record is written.
  std::array<StrField, kMaxStrFields> str{};
  for (std::size_t k = 0; k < event.str.size(); ++k) {
    str[k] = {event.str[k].first, intern(event.str[k].second)};
  }
  const std::size_t words =
      (sizeof(Header) + event.num.size() * sizeof(NumField) +
       event.str.size() * sizeof(StrField)) /
      kWord;
  if (chunk_used_ + words > kChunkWords) {
    DOPE_REQUIRE(chunks_.size() + 1 <
                     (std::size_t{1} << (32 - kChunkWordBits)),
                 "trace storage over its 32 GiB addressing limit");
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(kChunkWords * kWord));
    chunk_used_ = 0;
  }
  if ((size_ & (kIndexBlock - 1)) == 0) {
    index_.push_back(
        std::make_unique_for_overwrite<std::uint32_t[]>(kIndexBlock));
  }

  index_.back()[size_ & (kIndexBlock - 1)] = static_cast<std::uint32_t>(
      ((chunks_.size() - 1) << kChunkWordBits) | chunk_used_);
  std::byte* p = chunks_.back().get() + chunk_used_ * kWord;
  chunk_used_ += words;
  ++size_;
  ::new (p) Header{event.t, event.source, event.type,
                   static_cast<std::uint8_t>(event.num.size()),
                   static_cast<std::uint8_t>(event.str.size())};
  p += sizeof(Header);
  for (const NumField& f : event.num) {
    ::new (p) NumField(f);
    p += sizeof(NumField);
  }
  for (std::size_t k = 0; k < event.str.size(); ++k) {
    ::new (p) StrField(str[k]);
    p += sizeof(StrField);
  }
}

TraceEventRef TraceRecorder::at(std::size_t i) const {
  const std::uint32_t word = index_[i >> kIndexBits][i & (kIndexBlock - 1)];
  const std::byte* p = chunks_[word >> kChunkWordBits].get() +
                       (word & (kChunkWords - 1)) * kWord;
  const Header* h = std::launder(reinterpret_cast<const Header*>(p));
  p += sizeof(Header);
  const NumField* num = std::launder(reinterpret_cast<const NumField*>(p));
  p += h->num * sizeof(NumField);
  const StrField* str = std::launder(reinterpret_cast<const StrField*>(p));
  return {h->t, h->type, h->source, {num, h->num}, {str, h->str}};
}

std::size_t TraceRecorder::distinct_types() const {
  std::size_t n = 0;
  for (const auto c : counts_) {
    if (c > 0) ++n;
  }
  return n;
}

namespace {

void write_payload_fields(std::ostream& out, const TraceEventRef& e) {
  for (const auto& [key, value] : e.num) {
    out << ", ";
    write_json_string(out, key);
    out << ": ";
    write_json_number(out, value);
  }
  for (const auto& [key, value] : e.str) {
    out << ", ";
    write_json_string(out, key);
    out << ": ";
    write_json_string(out, value);
  }
}

}  // namespace

void write_jsonl_event(std::ostream& out, const TraceEventRef& e) {
  out << "{\"t_us\": " << e.t << ", \"t_s\": ";
  write_json_number(out, to_seconds(e.t));
  out << ", \"type\": ";
  write_json_string(out, event_type_name(e.type));
  out << ", \"source\": ";
  write_json_string(out, e.source);
  write_payload_fields(out, e);
  out << "}";
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  for (const TraceEventRef& e : events()) {
    write_jsonl_event(out, e);
    out << "\n";
  }
  if (dropped() > 0) {
    out << "{\"type\": \"TraceTruncated\", \"dropped\": " << dropped()
        << ", \"cap\": " << config_.max_events << "}\n";
  }
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  write_chrome_body(out, first);
  out << "\n]}\n";
}

void TraceRecorder::write_chrome_body(std::ostream& out,
                                      bool& first) const {
  // One synthetic thread per emitting component so each gets its own row.
  std::map<std::string_view, int> tids;
  for (const TraceEventRef& e : events()) {
    tids.emplace(e.source, 0);
  }
  int next_tid = 1;
  for (auto& [source, tid] : tids) tid = next_tid++;

  for (const auto& [source, tid] : tids) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": ";
    write_json_string(out, source);
    out << "}}";
  }
  for (const TraceEventRef& e : events()) {
    if (!first) out << ",\n";
    first = false;
    // Instant event, thread scope; ts is already microseconds.
    out << "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
        << tids[e.source] << ", \"ts\": " << e.t << ", \"name\": ";
    write_json_string(out, event_type_name(e.type));
    out << ", \"args\": {";
    bool first_arg = true;
    for (const auto& [key, value] : e.num) {
      if (!first_arg) out << ", ";
      first_arg = false;
      write_json_string(out, key);
      out << ": ";
      write_json_number(out, value);
    }
    for (const auto& [key, value] : e.str) {
      if (!first_arg) out << ", ";
      first_arg = false;
      write_json_string(out, key);
      out << ": ";
      write_json_string(out, value);
    }
    out << "}}";
  }
  if (dropped() > 0) {
    if (!first) out << ",\n";
    out << "{\"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, "
           "\"ts\": 0, \"name\": \"TraceTruncated\", \"args\": "
           "{\"dropped\": "
        << dropped() << "}}";
    first = false;
  }
}

}  // namespace dope::obs
