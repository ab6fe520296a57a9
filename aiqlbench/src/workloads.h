// The benchmark's three workloads. Each runs set-up, a warm-up pass and a
// closed loop of analyst passes for Options::seconds, checks every result
// against its reference, and fills `result` with the end-to-end metrics
// (untraced runs) or the per-layer metrics and tracing overhead (traced
// runs). Returns false when set-up itself failed.

#ifndef AIQLBENCH_WORKLOADS_H_
#define AIQLBENCH_WORKLOADS_H_

#include "harness.h"

namespace aiqlbench {

/// hot-investigation (cold = false) and cold-investigation (cold = true).
bool RunLocalInvestigation(const Options& options, bool cold,
                           RunResult* result);

/// served-ingest.
bool RunServedIngest(const Options& options, RunResult* result);

}  // namespace aiqlbench

#endif  // AIQLBENCH_WORKLOADS_H_
