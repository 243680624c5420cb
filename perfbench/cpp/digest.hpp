// Result digests: one 64-bit FNV-1a hash over every simulated statistic
// of a run, so two commits (or the traced mirror and the untraced entry
// point) compare exactly. Doubles hash by bit pattern.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "scenario/scenario.hpp"

namespace dopebench {

class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of every field of `result`, timelines and zones included.
std::uint64_t result_digest(const dope::scenario::ScenarioResult& result);

/// Hex spelling used in the benchmark's output.
std::string hex(std::uint64_t v);

}  // namespace dopebench
