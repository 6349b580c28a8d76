#pragma once
// The three workloads (README.md says why each exists) and the pieces
// they share.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gpusim/engine.hpp"
#include "host.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "scalfrag/autotune.hpp"
#include "scalfrag/exec_config.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window.
  double seconds = 10.0;
  /// Add the traced run and report per-layer metrics.
  bool trace = false;
  /// Tiny inputs, for the smoke tests only.
  bool smoke = false;
  /// Where the traced run's spans are written (empty: not written).
  std::string trace_file;
};

RunResult run_cpd_flickr3d(const Options& opt);
RunResult run_ooc_nell2(const Options& opt);
RunResult run_serve_mix(const Options& opt);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;
/// CP rank of every decomposition and MTTKRP in the benchmark.
inline constexpr scalfrag::index_t kRank = 16;
inline constexpr double kMiB = 1024.0 * 1024.0;

/// One host thread per op: the kernels run on the calling thread, so a
/// per-op time is not spread over a shared pool (README.md, "Steady by
/// design").
inline scalfrag::ExecConfig single_thread_config() {
  return scalfrag::ExecConfig{}.threads(1);
}

/// Train the adaptive-launch model for the simulated RTX 3090.
struct TrainedSelector {
  scalfrag::LaunchSelector selector;
  double train_s;
};
TrainedSelector train_selector();

/// Tensor-generation seed of a workload input, from the run's --seed.
inline std::uint64_t input_seed(std::uint64_t run_seed, std::uint64_t salt) {
  return run_seed * 1000003u + salt;
}

inline bool same_bits(const scalfrag::DenseMatrix& a,
                      const scalfrag::DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// Run `op` back to back until `opt.seconds` have passed, at least three
/// times (once for a smoke run). Returns each op's wall seconds and sets
/// `window_s` to the whole window.
template <typename Op>
std::vector<double> timed_window(const Options& opt, double& window_s, Op&& op) {
  std::vector<double> op_s;
  const std::int64_t w0 = now_ns();
  while (op_s.size() < 3 || seconds_since(w0) < opt.seconds) {
    const std::int64_t t0 = now_ns();
    op();
    op_s.push_back(seconds_since(t0));
    if (opt.smoke) break;
  }
  window_s = seconds_since(w0);
  return op_s;
}

/// The end-to-end metrics, in BENCHMARK.json order: the median of
/// `op_s`, the throughput, device time per op, the median set-up and
/// the process's peak RSS.
void add_end_to_end(RunResult& r, const std::vector<double>& op_s,
                    double jobs_per_s, std::size_t rate_samples, double sim_ms,
                    std::size_t sim_samples, const std::vector<double>& setup_s);

/// segmenter.*, mttkrp_par.* and pipeline.self_s from the stage totals a
/// metrics registry collected over `pipeline_calls` pipeline runs that
/// took `pipeline_s` in all.
void add_kernel_layers(RunResult& r, const scalfrag::obs::MetricsSnapshot& met,
                       double pipeline_s, std::size_t pipeline_calls);

/// The traced op's time, the share of it no child span covers, and its
/// overhead against the untraced median op time.
void add_trace_metrics(RunResult& r, double traced_op_s, double untraced_op_s,
                       double uncovered_frac, std::size_t traced_ops = 1);

/// The gpusim.* layer metrics from summed pipeline timelines and the
/// "gpu/..." counters a metrics registry collected over the same runs.
void add_sim_layers(RunResult& r, const scalfrag::gpusim::TimelineBreakdown& sim,
                    const scalfrag::obs::MetricsSnapshot& met);

/// Stage total of a metrics snapshot (zero when never recorded).
scalfrag::obs::StageStat stage(const scalfrag::obs::MetricsSnapshot& met,
                               const std::string& name);

}  // namespace perfbench
