#include "workloads.hpp"

#include "stats.hpp"

namespace perfbench {

using namespace scalfrag;

TrainedSelector train_selector() {
  AutoTunerConfig cfg;
  cfg.rank = kRank;
  AutoTuner tuner(gpusim::DeviceSpec::rtx3090(), cfg);
  const TrainingReport rep = tuner.train();
  return TrainedSelector{tuner.selector(), rep.train_seconds};
}

void add_end_to_end(RunResult& r, const std::vector<double>& op_s,
                    double jobs_per_s, std::size_t rate_samples, double sim_ms,
                    std::size_t sim_samples, const std::vector<double>& setup_s) {
  r.add(r.end_to_end, "op_s", median(op_s), "s", op_s.size(), "wall");
  r.add(r.end_to_end, "jobs_per_s", jobs_per_s, "1/s", rate_samples, "wall");
  r.add(r.end_to_end, "sim_ms", sim_ms, "ms", sim_samples, "sim");
  r.add(r.end_to_end, "setup_s", median(setup_s), "s", setup_s.size(), "wall");
  r.add(r.end_to_end, "peak_rss_mib", peak_rss_mib(), "MiB", 1, "host");
}

void add_kernel_layers(RunResult& r, const obs::MetricsSnapshot& met,
                       double pipeline_s, std::size_t pipeline_calls) {
  const obs::StageStat kernel = stage(met, "host/mttkrp");
  const obs::StageStat seg = stage(met, "host/segmentation");
  r.layer("segmenter.busy_s", seg.total_ns * 1e-9, seg.count);
  r.layer("segmenter.calls", static_cast<double>(seg.count));
  r.layer("mttkrp_par.busy_s", kernel.total_ns * 1e-9, kernel.count);
  r.layer("mttkrp_par.nnz", static_cast<double>(met.counter("host/nnz")));
  r.layer("pipeline.self_s",
          pipeline_s - (seg.total_ns + kernel.total_ns) * 1e-9, pipeline_calls);
}

void add_trace_metrics(RunResult& r, double traced_op_s, double untraced_op_s,
                       double uncovered_frac, std::size_t traced_ops) {
  r.layer("trace.op_s", traced_op_s, traced_ops);
  r.layer("trace.uncovered_frac", uncovered_frac, traced_ops);
  r.layer("trace.overhead_frac", traced_op_s / untraced_op_s - 1.0, traced_ops);
}

void add_sim_layers(RunResult& r, const gpusim::TimelineBreakdown& sim,
                    const obs::MetricsSnapshot& met) {
  r.layer("gpusim.h2d_ms", static_cast<double>(sim.h2d) * 1e-6);
  r.layer("gpusim.kernel_ms", static_cast<double>(sim.kernel) * 1e-6);
  r.layer("gpusim.d2h_ms", static_cast<double>(sim.d2h) * 1e-6);
  r.layer("gpusim.overlap_ms",
          static_cast<double>(sim.serial_sum() - sim.makespan) * 1e-6);
  r.layer("gpusim.h2d_mib",
          static_cast<double>(met.counter("gpu/h2d_bytes")) / kMiB);
  r.layer("gpusim.launches",
          static_cast<double>(met.counter("gpu/kernel_launches")));
}

obs::StageStat stage(const obs::MetricsSnapshot& met, const std::string& name) {
  const auto it = met.stages.find(name);
  return it == met.stages.end() ? obs::StageStat{} : it->second;
}

}  // namespace perfbench
