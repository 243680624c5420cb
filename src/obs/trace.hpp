// Structured event tracing.
//
// Components feed typed events ("a budget violation at t", "the DPM chose
// this throttling config") instead of printf lines, and the recorder
// exports the run as either JSONL (one event object per line, for jq/
// pandas) or the Chrome `trace_event` format, which chrome://tracing and
// Perfetto open directly — each emitting component becomes its own
// timeline row.
//
// Recording only *observes* simulator state: no RNG, no engine
// scheduling, so a run traced and untraced is byte-identical. Payload
// *keys* and the `source` string must be string literals (or otherwise
// outlive the recorder); payload string values are copied.
//
// Storage: a producer fills a `TraceEvent` on its stack (fixed-capacity
// inline payload lists, no heap) and `record()` appends it as one packed
// record `{t, source, type, counts}` + payload to fixed-size chunks,
// allocated when the first record lands in one. String values are
// interned once per recorder. Stored records never move; readers get
// `TraceEventRef` views of them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "common/units.hpp"

namespace dope::obs {

/// Every structured event the simulator can emit.
enum class EventType {
  kRequestForwarded,  // edge accepted a request and picked a backend
  kRequestDropped,    // edge rejected a request (payload: reason)
  kBudgetViolation,   // slot demand exceeded the facility budget
  kLevelViolation,    // a power-tree level (PDU/facility) over rating
  kThrottleApplied,   // a scheme changed DVFS targets
  kBatteryDischarge,  // battery began / continued covering a deficit
  kBatteryCharge,     // battery drew headroom to recharge
  kBreakerTrip,       // utility-feed breaker opened (outage begins)
  kOutageEnd,         // power restored, servers rebooting
  kFirewallBan,       // perimeter firewall banned a source
  kAttackPhase,       // adaptive attacker changed phase (burst on/off)
  kAlertRaised,       // watchdog rule started firing
  kAlertCleared,      // watchdog rule recovered
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kAlertCleared) + 1;

const char* event_type_name(EventType type);

/// One numeric payload field: (literal key, value).
using NumField = std::pair<const char*, double>;
/// One string payload field as readers see it: (literal key, value).
using StrField = std::pair<const char*, std::string_view>;

/// Payload caps per event. No producer emits more than 7 numeric fields
/// (Anti-DOPE's throttle record) or 2 string fields (watchdog raises,
/// attacker phases); adding past a cap is a DOPE_REQUIRE failure.
inline constexpr std::size_t kMaxNumFields = 8;
inline constexpr std::size_t kMaxStrFields = 2;

/// The numeric payload of an event under construction: an inline list
/// of at most kMaxNumFields fields.
class NumFields {
 public:
  NumFields() = default;
  NumFields(std::initializer_list<NumField> fields) {
    for (const NumField& f : fields) emplace_back(f.first, f.second);
  }

  void emplace_back(const char* key, double value) {
    DOPE_REQUIRE(size_ < kMaxNumFields, "trace event numeric payload full");
    fields_[size_++] = {key, value};
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NumField* data() const { return fields_.data(); }
  const NumField* begin() const { return fields_.data(); }
  const NumField* end() const { return fields_.data() + size_; }
  const NumField& operator[](std::size_t i) const { return fields_[i]; }

 private:
  std::array<NumField, kMaxNumFields> fields_{};
  std::size_t size_ = 0;
};

/// The string payload of an event under construction: at most
/// kMaxStrFields fields whose values the event owns until `record()`
/// copies them (a producer may pass a temporary std::string). Read as
/// (key, view) fields.
class StrFields {
 public:
  StrFields() = default;
  StrFields(const StrFields& other) { *this = other; }
  StrFields& operator=(const StrFields& other) {
    if (this == &other) return *this;
    size_ = 0;
    for (const StrField& f : other) emplace_back(f.first, f.second);
    return *this;
  }

  void emplace_back(const char* key, std::string_view value) {
    DOPE_REQUIRE(size_ < kMaxStrFields, "trace event string payload full");
    values_[size_].assign(value);
    fields_[size_] = {key, values_[size_]};
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const StrField* data() const { return fields_.data(); }
  const StrField* begin() const { return fields_.data(); }
  const StrField* end() const { return fields_.data() + size_; }
  const StrField& operator[](std::size_t i) const { return fields_[i]; }

 private:
  std::array<std::string, kMaxStrFields> values_;
  /// Views of values_[0, size_).
  std::array<StrField, kMaxStrFields> fields_{};
  std::size_t size_ = 0;
};

/// One timestamped, typed event with a small structured payload, as a
/// producer builds it.
struct TraceEvent {
  Time t = 0;
  EventType type = EventType::kRequestForwarded;
  /// Emitting component ("cluster", "firewall", "dpm", ...). Must be a
  /// string literal.
  const char* source = "";
  /// Numeric payload; keys must be string literals. JSONL inlines
  /// payload fields next to the envelope, so the keys "t_us", "t_s",
  /// "type" and "source" are reserved.
  NumFields num;
  /// String payload; keys must be string literals, values are owned.
  StrFields str;
};

/// A read-only view of one event: a stored record, or (converted
/// implicitly) a `TraceEvent`, which must then outlive the view.
struct TraceEventRef {
  TraceEventRef() = default;
  TraceEventRef(Time time, EventType kind, const char* from,
                std::span<const NumField> nums,
                std::span<const StrField> strs)
      : t(time), type(kind), source(from), num(nums), str(strs) {}
  // Implicit on purpose: a producer's event converts to its view.
  TraceEventRef(const TraceEvent& e)
      : t(e.t),
        type(e.type),
        source(e.source),
        num(e.num.data(), e.num.size()),
        str(e.str.data(), e.str.size()) {}

  Time t = 0;
  EventType type = EventType::kRequestForwarded;
  const char* source = "";
  std::span<const NumField> num;
  std::span<const StrField> str;
};

struct TraceConfig {
  /// Retention cap; events past it are counted in `dropped()` but not
  /// stored (never silently — exports embed the drop count).
  std::size_t max_events = 2'000'000;
};

class TraceRecorder;

/// The stored events of a recorder, in record order. Valid while the
/// recorder lives; later records extend it.
class TraceView {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEventRef;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TraceEventRef;

    const_iterator() = default;
    const_iterator(const TraceRecorder* trace, std::size_t i)
        : trace_(trace), i_(i) {}
    TraceEventRef operator*() const;
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }
    bool operator!=(const const_iterator& other) const {
      return i_ != other.i_;
    }

   private:
    const TraceRecorder* trace_ = nullptr;
    std::size_t i_ = 0;
  };

  explicit TraceView(const TraceRecorder* trace) : trace_(trace) {}

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  TraceEventRef operator[](std::size_t i) const;
  TraceEventRef back() const { return (*this)[size() - 1]; }
  const_iterator begin() const { return {trace_, 0}; }
  const_iterator end() const { return {trace_, size()}; }

 private:
  const TraceRecorder* trace_;
};

/// Append-only in-memory event log with JSONL / Chrome exports.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceConfig config = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void record(const TraceEvent& event);

  TraceView events() const { return TraceView(this); }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - size_; }
  /// Events of one type seen so far (dropped ones included).
  std::uint64_t count(EventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  /// Current retention cap.
  std::size_t max_events() const { return config_.max_events; }
  /// Adjusts the retention cap. Applies to future records only: already
  /// stored events are kept even when the cap shrinks below them.
  void set_max_events(std::size_t cap) { config_.max_events = cap; }
  /// Number of distinct event types seen so far.
  std::size_t distinct_types() const;

  /// Installs a tap invoked for every `record()` call — including
  /// events past the retention cap — after the event is counted and
  /// (when retained) stored, so a retained event is already the last of
  /// `events()`. This is how the flight recorder triggers on breaker
  /// trips and alert raises regardless of which component emitted them
  /// (the watchdog records directly, bypassing `Hub::event`). One
  /// listener; an empty function clears it. The listener must not call
  /// back into `record()`.
  void set_listener(std::function<void(const TraceEventRef&)> listener) {
    listener_ = std::move(listener);
  }

  /// One JSON object per line: {"t_us":..,"t_s":..,"type":"..",
  /// "source":"..", payload fields inlined}.
  void write_jsonl(std::ostream& out) const;

  /// Chrome trace_event JSON: instant events on one row per source, with
  /// thread-name metadata so Perfetto labels the rows.
  void write_chrome_trace(std::ostream& out) const;

  /// Writes the body of `write_chrome_trace` — the comma-separated event
  /// objects without the surrounding envelope — so `Hub` can append span
  /// tracks into the same traceEvents array. `first` tracks whether a
  /// separating comma is needed and is updated.
  void write_chrome_body(std::ostream& out, bool& first) const;

 private:
  friend class TraceView;

  /// Record envelope; `num` NumFields then `str` StrFields follow it.
  struct Header {
    Time t;
    const char* source;
    EventType type;
    std::uint8_t num;
    std::uint8_t str;
  };

  static constexpr std::size_t kWord = 8;
  static constexpr std::size_t kChunkWordBits = 13;  // 64 KiB chunks
  static constexpr std::size_t kChunkWords = std::size_t{1}
                                             << kChunkWordBits;
  static constexpr std::size_t kIndexBits = 14;
  static constexpr std::size_t kIndexBlock = std::size_t{1} << kIndexBits;

  void store(const TraceEvent& event);
  TraceEventRef at(std::size_t i) const;
  std::string_view intern(std::string_view value);

  TraceConfig config_;
  /// Record storage; a record never spans two chunks.
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  /// Words used in the last chunk.
  std::size_t chunk_used_ = kChunkWords;
  /// Event i starts at word index_[i >> kIndexBits][i & ...] of the
  /// chunk sequence (chunk = word >> kChunkWordBits).
  std::vector<std::unique_ptr<std::uint32_t[]>> index_;
  std::size_t size_ = 0;
  /// Interned string values. Lookup only — never iterated, so its
  /// order cannot reach an output.
  std::forward_list<std::string> interned_;
  std::unordered_set<std::string_view> intern_index_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kEventTypeCount> counts_{};
  std::function<void(const TraceEventRef&)> listener_;
};

inline std::size_t TraceView::size() const { return trace_->size_; }
inline TraceEventRef TraceView::operator[](std::size_t i) const {
  return trace_->at(i);
}
inline TraceEventRef TraceView::const_iterator::operator*() const {
  return trace_->at(i_);
}

/// Writes one event as its JSONL object (no trailing newline). Shared by
/// `TraceRecorder::write_jsonl` and the hub's merged span+event export.
void write_jsonl_event(std::ostream& out, const TraceEventRef& e);

}  // namespace dope::obs
