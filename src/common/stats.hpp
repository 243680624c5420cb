// Streaming and batch statistics used throughout metrics and benches.
#pragma once

#include <cstddef>
#include <vector>

#include "common/block_log.hpp"

namespace dope {

/// Numerically stable streaming mean/variance/min/max (Welford's method).
class OnlineStats {
 public:
  void add(double x);

  /// Merges another accumulator into this one (parallel-reduction friendly).
  void merge(const OnlineStats& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile computation over retained samples.
///
/// Retains every sample; intended for per-run metric collection where the
/// sample count is bounded by the number of simulated requests. Samples
/// live in fixed blocks, so recording never copies earlier samples.
/// Percentiles use linear interpolation between closest ranks (the
/// "inclusive" method). The two order statistics each one reads are found
/// by in-place selection: every position a query places is remembered,
/// so a later query partitions only the span between two placed
/// positions. `cdf_at` and `sorted_samples` sort the whole set.
class Percentiles {
 public:
  /// 2^17 samples (1 MiB) per storage block: a run of a few million
  /// samples then makes fewer allocations than a doubling vector would,
  /// and the pages of a block are touched only as samples land in them.
  using Samples = common::BlockLog<double, 17>;

  void add(double x) {
    samples_.push_back(x);
    sum_ += x;
    sorted_ = false;
    placed_.clear();
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// p in [0, 100]. Returns 0 for an empty sample set.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  /// Sum in insertion order over the count; 0 for an empty sample set.
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  /// Empirical CDF evaluated at `x`: fraction of samples <= x.
  double cdf_at(double x) const;

  /// Every sample in ascending order (useful for exporting full CDFs).
  const Samples& sorted_samples() const;

 private:
  void ensure_sorted() const;
  /// The k-th smallest sample, moved to position k by selection.
  double order_statistic(std::size_t k) const;

  // Queries reorder the samples, never add or drop one.
  mutable Samples samples_;
  double sum_ = 0.0;
  mutable bool sorted_ = true;
  /// Ascending positions already holding their order statistic, with
  /// nothing larger before and nothing smaller after them.
  mutable std::vector<std::size_t> placed_;
};

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double x = 0.0;
  double f = 0.0;
};

/// Downsamples an empirical distribution to `points` evenly spaced CDF
/// points, suitable for plotting paper-style CDF figures.
std::vector<CdfPoint> make_cdf(const Percentiles& dist, std::size_t points);

}  // namespace dope
