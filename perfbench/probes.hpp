// Layer probes: small fixed access patterns that each time exactly one
// layer's public functions on one host thread, with no fiber switches the
// probe did not ask for. Every probe repeats its pattern kProbeReps times
// and reports the median host time per operation.
#pragma once

#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct ProbeResult {
  std::string name;  // metric name, e.g. "mem.fill_ns"
  double value = 0;
  const char* unit = "ns";
  std::string error;  // non-empty when the probe's own check failed
};

// Runs every probe, each under its own span (layer = the probed layer).
// Returns one result per probe, failed ones included.
std::vector<ProbeResult> runProbes(SpanRecorder* spans);

}  // namespace perfbench
