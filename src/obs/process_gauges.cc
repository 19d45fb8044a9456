// The process-wide gauge registry, together with the sources that live as
// long as the process does.
#include "io/buffer_pool.h"
#include "obs/sampler.h"

namespace scishuffle::obs {

namespace {

/// The shared byte pool is process-global, so its gauges are registered once,
/// with the registry; a per-job or per-service registration would
/// double-count them while both were live (same-name sources sum).
struct ProcessGauges {
  GaugeRegistry registry;
  GaugeRegistration poolOutstanding = registry.add(
      gauge::kPoolOutstandingBytes, [] { return sharedBytePool().outstandingBytes(); });
  GaugeRegistration poolHwm =
      registry.add(gauge::kPoolHwmBytes, [] { return sharedBytePool().hwmBytes(); });
};

}  // namespace

GaugeRegistry& processGauges() {
  static ProcessGauges* gauges = new ProcessGauges();  // leaked: process lifetime
  return gauges->registry;
}

}  // namespace scishuffle::obs
