// The benchmark's workloads and the code that runs one leg of one.
//
// A leg is one process's worth of work: either an untraced leg (setup
// probes plus measured calls, giving the end-to-end metrics) or a traced
// leg (one call with a LayerSink and the prof sites on, giving the
// per-layer metrics). Both run the correctness gate and report the run's
// deterministic counts, so run.py can check that tracing changed nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

struct WorkloadInfo {
  std::string name;
  std::string what;
};

/// Every workload the benchmark knows, in the order BENCHMARK.json lists them.
const std::vector<WorkloadInfo>& workloads();

struct LegOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measurement budget of an untraced leg. It sets the number of measured
  /// calls from the workload's nominal call time, so the work done never
  /// depends on how fast this host runs it.
  double seconds = 0;
  bool traced = false;
  /// Traced legs write their chrome trace here ("" = don't write).
  std::string trace_out;
};

struct LegResult {
  std::vector<std::string> errors;  // correctness-gate failures
  std::uint64_t attempted = 0;      // agreement instances run
  std::uint64_t failed = 0;         // of those, instances that failed the gate
  srds::obs::Json counts = srds::obs::Json::object();   // deterministic
  srds::obs::Json metrics = srds::obs::Json::object();  // end to end (untraced)
  srds::obs::Json layers = srds::obs::Json::object();   // per layer (traced)
  double call_wall_s = 0;  // median wall of the measured call
};

/// Run one leg. Throws std::invalid_argument for an unknown workload.
LegResult run_leg(const LegOptions& opt);

}  // namespace perfbench
