// The one monotonic microsecond clock: phase timings, span and metrics
// timestamps, sampler ticks, heartbeats and queue waits all read it, so their
// values are comparable across subsystems. The task CPU counters read the
// calling thread's CPU clock instead, so waiting for a core is not CPU time.
#pragma once

#include <time.h>

#include <chrono>

#include "io/common.h"

namespace scishuffle {

/// steady_clock time since its epoch, in microseconds.
inline u64 steadyNowUs() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// CPU time the calling thread has used, in microseconds. A window over it
/// must start and end on the same thread.
inline u64 threadCpuNowUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000u + static_cast<u64>(ts.tv_nsec) / 1000u;
}

}  // namespace scishuffle
