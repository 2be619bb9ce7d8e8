// A small fixed piece of work that samples the host's current speed.
//
// Shared hosts run branchy, allocating code slower in episodes of
// seconds to minutes (README.md, noise notes): identical replays drift by
// tens of percent between passes and between runs. The untraced replay
// loop therefore runs this probe every few milliseconds, outside the
// timed calls, and set-up samples are bracketed by probes. A measured
// interval's wall times are then scaled by a power of (reference probe
// time / mean probe time over the interval): a host running everything
// 30% slower for a while reports the same figures. The power is the
// workload's speed_exponent for replays (a replay slows down more than
// the small probe; how much more depends on the workload) and 1 for
// engine builds. The probe shares no code with the engine, so a change
// to the engine moves the scaled figures as much as the raw ones.
#pragma once

#include <cmath>

namespace perfbench {

/// Mean probe time on the reference host (one core of a 2 GHz Xeon VM).
/// Scaled times are "seconds at that host's speed".
inline constexpr double kProbeReferenceSeconds = 0.4e-3;

/// Run the probe once and return its wall time in seconds. The work is
/// the same on every call and about 0.4 ms long: ordered-map inserts,
/// range reads and erases over small heap nodes, a depth-first walk of
/// an adjacency-list tree with a test per vertex, and hash-map lookups of
/// short strings built on the fly (the kinds of work the planner,
/// traverser and jobspec/queue layers do), on freshly allocated memory.
double probe_seconds();

/// The probes taken over one measured interval.
class SpeedSample {
 public:
  void probe() {
    seconds_ += probe_seconds();
    ++count_;
  }
  int count() const { return count_; }
  double seconds() const { return seconds_; }
  /// Factor that turns the interval's wall times into reference-host
  /// times: (kProbeReferenceSeconds / mean probe time)^exponent; 1 when
  /// no probe was taken.
  double scale(double exponent = 1.0) const {
    return count_ > 0 && seconds_ > 0
               ? std::pow(kProbeReferenceSeconds * count_ / seconds_,
                          exponent)
               : 1.0;
  }

 private:
  double seconds_ = 0;
  int count_ = 0;
};

}  // namespace perfbench
