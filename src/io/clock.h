// The one monotonic microsecond clock: phase timings, span and metrics
// timestamps, sampler ticks, heartbeats and queue waits all read it, so their
// values are comparable across subsystems.
#pragma once

#include <chrono>

#include "io/common.h"

namespace scishuffle {

/// steady_clock time since its epoch, in microseconds.
inline u64 steadyNowUs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace scishuffle
