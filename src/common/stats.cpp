#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace dope {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return count_ ? min_ : 0.0; }

double OnlineStats::max() const { return count_ ? max_ : 0.0; }

void Percentiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
    placed_.clear();
  }
}

double Percentiles::order_statistic(std::size_t k) const {
  if (sorted_) return samples_[k];
  const auto at = std::lower_bound(placed_.begin(), placed_.end(), k);
  if (at != placed_.end() && *at == k) return samples_[k];
  // Rank k lies between the placed positions on either side of it.
  const std::size_t lo = at == placed_.begin() ? 0 : *(at - 1) + 1;
  const std::size_t hi = at == placed_.end() ? samples_.size() : *at;
  const auto pos = [this](std::size_t i) {
    return samples_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  if (k == lo) {
    std::iter_swap(pos(k), std::min_element(pos(lo), pos(hi)));
  } else if (k + 1 == hi) {
    std::iter_swap(pos(k), std::max_element(pos(lo), pos(hi)));
  } else {
    std::nth_element(pos(lo), pos(k), pos(hi));
  }
  placed_.insert(at, k);
  return samples_[k];
}

double Percentiles::percentile(double p) const {
  DOPE_REQUIRE(p >= 0.0 && p <= 100.0, "percentile rank out of range");
  const std::size_t n = samples_.size();
  if (n == 0) return 0.0;
  if (n == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  const double at_lo = order_statistic(lo);
  const double at_hi = order_statistic(hi);
  return at_lo + frac * (at_hi - at_lo);
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Percentiles::cdf_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

const Percentiles::Samples& Percentiles::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

std::vector<CdfPoint> make_cdf(const Percentiles& dist, std::size_t points) {
  DOPE_REQUIRE(points >= 2, "a CDF needs at least two points");
  std::vector<CdfPoint> out;
  if (dist.empty()) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p =
        100.0 * static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back({dist.percentile(p), p / 100.0});
  }
  return out;
}

}  // namespace dope
