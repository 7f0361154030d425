// The benchmark's workloads. Each one is built from the workload seed, runs
// closed-loop from one driver thread, and checks its own outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/trace.h"

namespace perfbench {

struct Params {
  uint64_t seed = 1;
  // A few inputs per config, for the benchmark's self-test.
  bool tiny = false;
  // Swap the config hosting this seeded bug into a clean sweep (0 = none);
  // the self-test uses it to show the correctness gates are not vacuous.
  int inject_bug = 0;
  std::string pins_path;  // per-ordinal crash-state pins
  std::string work_dir;   // scratch space inside the checkout
};

// What one pass over a workload's inputs produced.
struct PassResult {
  double wall_s = 0;
  uint64_t attempted = 0;  // units attempted (table1-detect: rows)
  uint64_t failed = 0;     // errored, quarantined, or (table1) not detected
  uint64_t states = 0;     // crash states visited
  uint64_t crash_points = 0;
  uint64_t workloads = 0;  // workloads executed
  std::vector<double> latencies_ms;  // one per workload executed
  // Deterministic outputs (crash-state counts, report signatures, ...),
  // compared between the plain and the traced pass and across invocations.
  std::map<std::string, uint64_t> counters;
  // Per-layer values the workload measures itself (name -> value).
  std::map<std::string, double> layer;
  std::vector<std::string> gate_errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds configs, harnesses and inputs, and warms every config up once.
  virtual void Setup() = 0;
  // One pass over the inputs. A non-null tracer selects the traced run:
  // instrumented configs, spans around every public call.
  virtual PassResult Pass(Tracer* tracer) = 0;
  // Recorded in the benchmark output: device size, threads, sample size.
  virtual std::string Describe() const = 0;
};

// Resource usage of this process so far (getrusage).
struct Usage {
  double cpu_s = 0;  // user + sys
  double sys_s = 0;
  double minor_faults = 0;
  double max_rss_mib = 0;

  static Usage Now();
};

// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> v, double q);

// Known names: ace-seq2, ace-seq1-16m, table1-detect, fuzz-mt-campaign.
// Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Params& params);

// Writes per-ordinal crash-state pins for the ACE sweeps to `path`.
bool WritePins(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
