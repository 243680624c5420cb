// Request-lifecycle span tracing.
//
// A *span* is a timed interval in one request's life — the root request
// span plus child spans for the firewall verdict, the LB pick, time spent
// queued, and slot occupancy on a server. Spans form a two-level tree:
// every child points at its request's root span, so "which request, from
// which source, occupied which server slot during the violation at t?"
// is a join over `{span.server, span.slot, span.begin..end}`.
//
// Span ids are *stable*: `(request_id << 3) | stage`. Request ids are
// seed-derived (`(seed << 40) ^ serial`), so two runs of the same
// scenario produce identical span ids — diffable traces.
//
// Like the rest of the hub, the tracer only observes: recording a span
// never schedules an event, consumes randomness, or allocates on the
// simulation's hot path beyond the append itself. Call sites cache the
// `SpanTracer*` at construction and guard on null, so a run without
// spans does zero observability work and exports byte-identical results.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/block_log.hpp"
#include "common/units.hpp"

namespace dope::obs {

/// Lifecycle stage of a span; doubles as the low bits of its id.
enum class SpanKind : std::uint8_t {
  kRequest = 0,   // arrival -> terminal outcome (root)
  kFirewall = 1,  // perimeter verdict (instant)
  kLbPick = 2,    // load-balancer selection (instant)
  kQueue = 3,     // waiting in a server's FCFS queue
  kService = 4,   // occupying a server slot
};

inline constexpr std::size_t kSpanKindCount = 5;

const char* span_kind_name(SpanKind kind);

/// Deterministic span id: request id in the high bits, stage in the low
/// three. Any component can derive a request's root-span id locally.
inline std::uint64_t span_id_for(std::uint64_t request_id, SpanKind kind) {
  return (request_id << 3) | static_cast<std::uint64_t>(kind);
}

/// One span. `label` and `outcome` must be string literals (or otherwise
/// outlive the tracer), mirroring the TraceEvent key convention. Fields
/// are ordered widest first so the struct carries no interior padding.
struct Span {
  std::uint64_t id = 0;
  /// Root-span id of the owning request; 0 for the root itself.
  std::uint64_t parent = 0;
  Time begin = 0;
  /// -1 while the span is still open.
  Time end = -1;
  /// Power attributed to the span (service spans: the request's active
  /// power at admission level; 0 elsewhere).
  Watts power_w{0.0};
  const char* label = "";
  const char* outcome = "";
  std::uint32_t source_id = 0;
  std::uint32_t url_class = 0;
  /// Serving node (-1 when not tied to a server).
  int server = -1;
  /// Slot index on the server (-1 when not in service).
  int slot = -1;
  /// Zone the span was recorded in (-1 for a standalone cluster; set for
  /// every span inside a `site::Site`).
  int zone = -1;
  SpanKind kind = SpanKind::kRequest;

  bool open() const { return end < 0; }
};
static_assert(sizeof(Span) == 80, "Span grew: keep its fields unpadded");

/// Open-addressing map from a 64-bit key to an index: linear probing,
/// backward-shift deletion (no tombstones), doubling at load 0.5. It
/// allocates nothing until the first insert. Lookup only — it has no
/// iteration, so slot order cannot leak into any output.
class FlatIndex {
 public:
  /// "Absent"; never a stored value.
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t size() const { return size_; }

  /// Stores `value` for `key`, replacing any previous value.
  void assign(std::uint64_t key, std::size_t value) {
    claim(key).value = value;
  }

  /// Stores `value` for `key` unless the key is present; returns the
  /// stored value either way.
  std::size_t insert(std::uint64_t key, std::size_t value) {
    Slot& slot = claim(key);
    if (slot.value == kNone) slot.value = value;
    return slot.value;
  }

  /// Removes `key` and returns its value, or kNone when it is absent.
  std::size_t take(std::uint64_t key) {
    if (size_ == 0) return kNone;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask()) {
      const Slot& slot = slots_[hole];
      if (slot.value == kNone) return kNone;
      if (slot.key == key) break;
    }
    const std::size_t value = slots_[hole].value;
    // Backward shift: pull each later entry of the cluster into the
    // hole when the hole lies on its probe path (home .. its slot).
    for (std::size_t j = (hole + 1) & mask();; j = (j + 1) & mask()) {
      const Slot& slot = slots_[j];
      if (slot.value == kNone) break;
      if (((j - home(slot.key)) & mask()) >= ((j - hole) & mask())) {
        slots_[hole] = slot;
        hole = j;
      }
    }
    slots_[hole].value = kNone;
    --size_;
    return value;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::size_t value = kNone;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  /// The slot holding `key`, or a fresh empty slot reserved for it
  /// (value kNone, counted in size_) that the caller fills.
  Slot& claim(std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.value == kNone) break;
      if (slot.key == key) return slot;
    }
    ++size_;
    slots_[i].key = key;
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot& slot : old) {
      if (slot.value == kNone) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].value != kNone) i = (i + 1) & mask();
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

/// The span log: fixed blocks of 2^14 spans, each allocated when the
/// first span lands in it (see `common::BlockLog`).
class SpanLog : public common::BlockLog<Span, 14> {
 public:
  static constexpr std::size_t kBlockSpans = kBlockSize;
};

class ForensicsBuilder;

struct SpanConfig {
  /// Retention cap; spans past it are counted but not stored (exports
  /// embed the drop count — never silent).
  std::size_t max_spans = 2'000'000;
};

/// Append-only span log with begin/end pairing.
class SpanTracer {
 public:
  explicit SpanTracer(SpanConfig config = {});
  ~SpanTracer();

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Opens a span (`span.end` is forced to -1). Dropped silently into
  /// the overflow counter once the cap is hit.
  void begin(Span span);

  /// Closes the open span `id` at `t`. Unknown ids (never begun, begun
  /// past the cap, or already closed) are counted and ignored.
  void end(std::uint64_t id, Time t, const char* outcome);

  /// Records an already-closed zero-duration span at `t` (verdicts).
  void instant(Span span, Time t);

  const SpanLog& spans() const { return spans_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - spans_.size(); }
  /// Ends that matched no open span.
  std::uint64_t unmatched_ends() const { return unmatched_ends_; }
  std::size_t open_count() const { return open_.size(); }
  std::uint64_t count(SpanKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::size_t max_spans() const { return config_.max_spans; }
  void set_max_spans(std::size_t cap) { config_.max_spans = cap; }

  /// One `SpanBegin`/`SpanEnd` JSONL record pair per span, time-ordered
  /// (stand-alone export; `Hub::write_trace_jsonl` merges spans with the
  /// event trace instead).
  void write_jsonl(std::ostream& out) const;

  /// The run's forensics fold over this log, created on first use.
  /// Flight-recorder captures, `Forensics::build` and the incident
  /// bundle's SLO section all advance this one builder, so each closed
  /// span is folded once per run. A cache of derived state: advancing
  /// it changes nothing the tracer records or exports.
  ForensicsBuilder& forensics() const;

 private:
  SpanConfig config_;
  SpanLog spans_;
  /// Open-span lookup: id -> index into spans_.
  FlatIndex open_;
  std::uint64_t recorded_ = 0;
  std::uint64_t unmatched_ends_ = 0;
  std::array<std::uint64_t, kSpanKindCount> counts_{};
  mutable std::unique_ptr<ForensicsBuilder> forensics_;
};

/// Writes one span as its JSONL `SpanBegin` record (no trailing newline
/// handling — callers append '\n').
void write_span_begin_jsonl(std::ostream& out, const Span& span);

/// Writes one span as its JSONL `SpanEnd` record. Only valid for closed
/// spans.
void write_span_end_jsonl(std::ostream& out, const Span& span);

}  // namespace dope::obs
