#pragma once
// What one benchmark run measured, and how it is printed: a readable
// table, one `detail` JSON line (host facts, sample counts, the values
// that must repeat exactly for a seed), and the result line the
// benchmark contract asks for, last.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples the value was computed from (1 for a single measurement
  /// or a count).
  std::size_t samples = 1;
  /// "wall", "sim" (simulated RTX 3090 ns), "host" (process memory),
  /// "count" or "ratio".
  std::string domain;
};

struct RunResult {
  std::string workload;
  /// The contract's end-to-end metrics (printed with --trace 0).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics from the traced run (printed with --trace 1),
  /// by name; see layer().
  std::map<std::string, Metric> layers;
  /// Reported in the table and the detail line only: metrics that exist
  /// on some workloads only (a tail percentile needs enough samples).
  std::vector<Metric> extra;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One message per failed output check.
  std::vector<std::string> check_failures;

  /// Values that must read exactly the same in every run with the same
  /// seed (simulated times and counts). The runner compares them
  /// across runs.
  std::map<std::string, double> repeat;

  /// Host facts and configuration (threads, devices, scale, ...).
  std::map<std::string, std::string> facts;

  void fail(const std::string& why);
  void add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::size_t samples, std::string domain);
  /// Record a per-layer metric; its unit and domain come from
  /// layer_metric_defs(). Throws for a name not in that list.
  void layer(const std::string& name, double value, std::size_t samples = 1);
};

/// Every per-layer metric, in report order. Each traced run reports all
/// of them; a layer a workload does not reach (or cannot observe from
/// outside the library) reads 0 with 0 samples.
const std::vector<Metric>& layer_metric_defs();

/// The per-layer list a traced run reports: layer_metric_defs() with
/// the recorded values filled in.
std::vector<Metric> per_layer_metrics(const RunResult& r);

/// Print the table, the detail line and the result line. `trace`
/// selects which metric list the result line carries. Throws if a name
/// or unit breaks the naming rules.
void print_result(const RunResult& r, bool trace);

}  // namespace perfbench
