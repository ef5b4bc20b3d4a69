#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// sim-contended / sim-cached-checked: the five paper protocols run one
/// after another through runner::RunExperiment, round after round, for
/// the requested wall seconds.
void RunSimWorkload(const Options& options, Report* report);

/// real-2pl: one ServerNode and one ClientShard over TCP loopback, driven
/// from outside through the substrate API.
void RunRealWorkload(const Options& options, Report* report);

/// Isolated probes: each layer's public functions called directly
/// (lock manager, client cache, wire codec, SPSC ring, kernel, checker).
void RunLayerProbes(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
