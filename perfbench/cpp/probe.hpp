// Host-speed probe: a fixed piece of work that uses none of the
// simulator's code, timed around every measured run and every chunk of
// set-up runs so that the end-to-end metrics can be expressed against the
// host's speed at that moment.
//
// A shared host's speed drifts: a neighbour's memory traffic slowed the
// simulator by up to 40% for minutes at a time, which no estimator over
// one run's own timings removes. The probe does the kinds of work the
// simulator's hot loop does — a binary heap of timed events, small heap
// allocations, and dependent loads over a buffer much larger than the
// core's private caches — so it slows down in step with the simulator.
// Because it shares no code with the simulator, a change to the
// simulator leaves the probe's time as it was.
#pragma once

#include <cstdint>
#include <vector>

namespace dopebench {

class HostProbe {
 public:
  /// Builds the probe's buffer (one random cycle over 16 MiB, fixed
  /// seed); the same on every call and every host.
  HostProbe();

  /// Runs the probe once and returns its host wall time in seconds
  /// (about 0.1 s on a 4-vCPU Xeon VM).
  double run_s();

  /// Bytes of the buffer, resident from construction on.
  std::size_t buffer_bytes() const {
    return next_.size() * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

}  // namespace dopebench
