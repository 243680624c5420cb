// Per-source attack forensics.
//
// Rolls the span log up into per-source aggregates — the attribution the
// paper's Figures 9–12 reason about: how many requests each source sent,
// how many joules its requests drew on server slots, how long it occupied
// them, and how often its slot occupancy coincided with a recorded
// `BudgetViolation` instant. Sorting by attributed joules yields a
// suspect ranking that can be cross-checked against Anti-DOPE's own
// URL-class suspect list: a real DOPE botnet's top sources all carry a
// suspicious dominant URL class.
//
// Built from an attached `SpanTracer` + `TraceRecorder` through the
// tracer's one `ForensicsBuilder`, which folds each span once whether the
// flight recorder asks mid-run or the export asks after the run; never
// touches the simulation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "common/units.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace dope::obs {

/// Aggregates for one traffic source (client IP).
struct SourceStats {
  std::uint32_t source_id = 0;
  /// Root request spans observed.
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  /// Energy attributed to this source's service spans (power at
  /// admission x slot occupancy).
  Joules joules{0.0};
  /// Total server-slot occupancy (milliseconds).
  double occupancy_ms = 0.0;
  /// BudgetViolation instants that fell inside a service span of this
  /// source — the "who was on the slot during the violation" join.
  std::uint64_t violation_overlaps = 0;
  /// URL class carrying the most attributed joules (most requests when
  /// the source never reached a slot); ties break to the lower class id.
  std::uint32_t dominant_class = 0;
  /// Zone whose service spans carry the most of this source's joules;
  /// -1 when the source never reached a slot or the run was a
  /// standalone (zone-less) cluster. Inside a Site this is the "which
  /// zone is the botnet hammering" attribution.
  std::int32_t dominant_zone = -1;
};

/// Per-source rollup over one run's spans.
class Forensics {
 public:
  /// Aggregates `spans` against `trace`'s BudgetViolation instants. Open
  /// spans are clamped to `horizon` (the run duration); a negative
  /// horizon clamps to the latest time observed in the span log.
  /// Same as `ForensicsBuilder{}.snapshot(spans, trace, horizon)`, but
  /// advances `spans.forensics()` (see `advance_to_log`) and snapshots
  /// that, so only the spans past its watermark are folded again; a
  /// builder that has read another recorder starts over on `trace`.
  static Forensics build(const SpanTracer& spans, const TraceRecorder& trace,
                         Time horizon = -1);

  /// All sources, ordered by source id.
  const std::vector<SourceStats>& sources() const { return sources_; }
  /// Top `k` sources by attributed joules (ties: lower source id first).
  std::vector<SourceStats> top_by_joules(std::size_t k) const;
  /// Sum of per-source attributed joules.
  Joules total_joules() const { return total_joules_; }
  /// BudgetViolation instants seen in the trace.
  std::uint64_t violation_events() const { return violation_events_; }

  /// {"total_joules":…, "violation_events":…, "ranking":[…]} with the
  /// ranking ordered by joules descending (deterministic tie-break).
  void write_json(std::ostream& out) const;

 private:
  friend class ForensicsBuilder;

  std::vector<SourceStats> sources_;
  Joules total_joules_{0.0};
  std::uint64_t violation_events_ = 0;
};

/// Service-level figures for one URL class over closed root request
/// spans (the incident bundle's SLO section).
struct SloClass {
  std::uint32_t url_class = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  /// Requests that did not complete or took longer than the objective.
  std::uint64_t breaches = 0;
  /// Nearest-rank latency percentiles (milliseconds).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Incremental `Forensics`: the per-source accumulators of a closed
/// prefix of the span log, so repeated snapshots of a growing log (one
/// per flight-recorder incident, then the end-of-run export) fold each
/// span once instead of re-folding the whole run each time. Each
/// `SpanTracer` owns one (`SpanTracer::forensics()`).
///
/// A span that closed before `now` is final: it never changes again,
/// and every BudgetViolation recorded from `now` on has t >= now > end,
/// so its overlap count is final too. `advance` folds the leading run
/// of such spans (the *watermark* marks where it stops); `snapshot`
/// folds the rest on a copy. Each source's sums are added in span-index
/// order either way, so a snapshot equals a fresh full fold bit for bit.
///
/// The same fold keeps per-URL-class SLO samples of the closed request
/// spans; `slo` adds the closed requests past the watermark. Snapshots
/// never copy those samples.
class ForensicsBuilder {
 public:
  /// Picks up the BudgetViolation instants recorded since the last call,
  /// then folds spans from the watermark on while they are closed with
  /// end < `now`. `now` is the current sim time: no violation recorded
  /// later may be earlier than it. A builder that has read a different
  /// recorder restarts from scratch on `trace`.
  void advance(const SpanTracer& spans, const TraceRecorder& trace,
               Time now);

  /// `advance` up to the begin time of the last logged span. Spans are
  /// logged when they begin, at the engine clock, so that time is a
  /// lower bound on the clock and on every violation recorded later.
  void advance_to_log(const SpanTracer& spans, const TraceRecorder& trace);

  /// The rollup over all of `spans` and every stored violation in
  /// `trace`: the folded prefix plus the spans from the watermark on,
  /// open ones clamped to `horizon` (negative: the latest time in the
  /// span log). Leaves the builder unchanged; a builder that has read a
  /// different recorder answers with a fresh fold.
  Forensics snapshot(const SpanTracer& spans, const TraceRecorder& trace,
                     Time horizon = -1) const;

  /// Per-URL-class SLO figures, in class order, over every closed root
  /// request span of `spans`: the folded samples plus the closed
  /// requests past the watermark. A request breaches when it did not
  /// complete or its latency exceeds `objective_ms`.
  std::vector<SloClass> slo(const SpanTracer& spans,
                            double objective_ms) const;

  /// Spans [0, watermark) are folded; all of them are closed.
  std::size_t watermark() const { return watermark_; }

 private:
  struct ClassAccum {
    std::uint32_t url_class = 0;
    Joules joules{0.0};
    std::uint64_t requests = 0;
  };
  struct ZoneAccum {
    std::int32_t zone = 0;
    Joules joules{0.0};
  };
  struct SourceAccum {
    SourceStats stats;
    std::vector<ClassAccum> classes;
    std::vector<ZoneAccum> zones;
  };
  /// The per-source state; `snapshot` works on a copy of it.
  struct Rollup {
    void read_violations(const TraceRecorder& trace);
    void fold(const Span& span, Time horizon);

    /// Source id -> index into sources (first-seen order).
    FlatIndex index;
    std::vector<SourceAccum> sources;
    /// Index of the source folded last: a request's root and verdict
    /// spans are logged back to back, so most spans skip the lookup.
    std::size_t last_source = 0;
    /// BudgetViolation instants, in trace (= time) order.
    std::vector<Time> violations;
    /// Trace events already scanned for violations.
    std::size_t trace_cursor = 0;
    /// Latest begin/end over the folded prefix.
    Time latest = std::numeric_limits<Time>::min();
  };
  /// Latency samples of one URL class's closed request spans, each
  /// `(end - begin) << 1 | !completed`: ordering samples orders
  /// latencies, and the low bit marks a breach at any objective.
  struct SloAccum {
    std::uint32_t url_class = 0;
    std::vector<std::uint64_t> samples{};
  };

  /// True when the builder has read no recorder yet, or only `trace`.
  bool reads(const TraceRecorder& trace) const {
    return trace_ == nullptr || trace_ == &trace;
  }
  static Forensics finish(Rollup& rollup);
  /// Appends the sample of the closed request `span` to its class.
  static void add_slo_sample(std::vector<SloAccum>& classes,
                             const Span& span);

  Rollup rollup_;
  /// One entry per URL class, first-seen order.
  std::vector<SloAccum> slo_;
  /// The recorder whose violations rollup_ holds; null before the first
  /// `advance`.
  const TraceRecorder* trace_ = nullptr;
  std::size_t watermark_ = 0;
};

}  // namespace dope::obs
