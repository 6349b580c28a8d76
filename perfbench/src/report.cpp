#include "report.hpp"

#include <array>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "obs/json.hpp"
#include "stats.hpp"

namespace perfbench {

void RunResult::fail(const std::string& why) {
  ++failed;
  check_failures.push_back(why);
}

void RunResult::add(std::vector<Metric>& to, std::string name, double value,
                    std::string unit, std::size_t samples, std::string domain) {
  to.push_back(Metric{std::move(name), value, std::move(unit), samples,
                      std::move(domain)});
}

const std::vector<Metric>& layer_metric_defs() {
  static const std::vector<Metric> defs = [] {
    const std::vector<std::array<const char*, 3>> rows = {
        // name, unit, domain
        {"generator.busy_s", "s", "wall"},
        {"autotune.train_s", "s", "wall"},
        {"autotune.select_calls", "count", "count"},
        {"mode_views.busy_s", "s", "wall"},
        {"plan.build_s", "s", "wall"},
        {"plan.replay_s", "s", "wall"},
        {"segmenter.busy_s", "s", "wall"},
        {"segmenter.calls", "count", "count"},
        {"mttkrp_par.busy_s", "s", "wall"},
        {"mttkrp_par.nnz", "count", "count"},
        {"pipeline.self_s", "s", "wall"},
        {"linalg.busy_s", "s", "wall"},
        {"cpd.self_s", "s", "wall"},
        {"gpusim.h2d_ms", "ms", "sim"},
        {"gpusim.kernel_ms", "ms", "sim"},
        {"gpusim.d2h_ms", "ms", "sim"},
        {"gpusim.overlap_ms", "ms", "sim"},
        {"gpusim.h2d_mib", "MiB", "count"},
        {"gpusim.launches", "count", "count"},
        {"io_stream.busy_s", "s", "wall"},
        {"io_stream.mib", "MiB", "count"},
        {"external_sort.spill_s", "s", "wall"},
        {"external_sort.spill_mib", "MiB", "count"},
        {"external_sort.runs", "count", "count"},
        {"external_sort.merge_s", "s", "wall"},
        {"external_sort.merge_passes", "count", "count"},
        {"streaming.chunk_s", "s", "wall"},
        {"streaming.chunks", "count", "count"},
        {"streaming.overrun_frac", "ratio", "ratio"},
        {"streaming.resident_peak_mib", "MiB", "host"},
        {"job_queue.wait_s", "s", "wall"},
        {"service.device_wait_s", "s", "wall"},
        {"service.exec_s.cpd", "s", "wall"},
        {"service.exec_s.mttkrp", "s", "wall"},
        {"service.exec_s.tucker", "s", "wall"},
        {"service.busy_frac", "ratio", "ratio"},
        {"service.load_imbalance", "ratio", "ratio"},
        {"service.prepare_s", "s", "wall"},
        {"service.rss_growth_mib", "MiB", "host"},
        {"plan_cache.hit_ratio", "ratio", "ratio"},
        {"plan_cache.tensor_hit_ratio", "ratio", "ratio"},
        {"format_select.auto_csf_frac", "ratio", "ratio"},
        {"trace.op_s", "s", "wall"},
        {"trace.uncovered_frac", "ratio", "ratio"},
        {"trace.overhead_frac", "ratio", "ratio"},
    };
    std::vector<Metric> out;
    for (const auto& [name, unit, domain] : rows) {
      out.push_back(Metric{name, 0.0, unit, 0, domain});
    }
    return out;
  }();
  return defs;
}

void RunResult::layer(const std::string& name, double value,
                      std::size_t samples) {
  for (const Metric& d : layer_metric_defs()) {
    if (d.name == name) {
      layers[name] = Metric{name, value, d.unit, samples, d.domain};
      return;
    }
  }
  throw std::invalid_argument("undeclared per-layer metric: " + name);
}

std::vector<Metric> per_layer_metrics(const RunResult& r) {
  std::vector<Metric> out = layer_metric_defs();
  for (Metric& m : out) {
    const auto it = r.layers.find(m.name);
    if (it != r.layers.end()) m = it->second;
  }
  return out;
}

namespace {

void check_names(const std::vector<Metric>& ms, std::set<std::string>& seen) {
  for (const Metric& m : ms) {
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("bad metric name: " + m.name);
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("bad unit for " + m.name + ": " + m.unit);
    }
    if (!seen.insert(m.name).second) {
      throw std::invalid_argument("metric reported twice: " + m.name);
    }
  }
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  if (ms.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.6g %-6s %-5s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.domain.c_str(), m.samples);
  }
}

void write_metric_objects(scalfrag::obs::JsonWriter& w,
                          const std::vector<Metric>& ms, bool with_samples) {
  for (const Metric& m : ms) {
    w.key(m.name).begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    if (with_samples) {
      w.kv("samples", static_cast<std::uint64_t>(m.samples));
      w.kv("domain", m.domain);
    }
    w.end_object();
  }
}

}  // namespace

void print_result(const RunResult& r, bool trace) {
  const std::vector<Metric> per_layer =
      trace ? per_layer_metrics(r) : std::vector<Metric>{};
  std::set<std::string> seen;
  check_names(r.end_to_end, seen);
  check_names(per_layer, seen);
  check_names(r.extra, seen);

  std::printf("\nworkload %s\n", r.workload.c_str());
  for (const auto& [k, v] : r.facts) {
    std::printf("  %-32s %s\n", k.c_str(), v.c_str());
  }
  print_table("end-to-end (tracing off)", r.end_to_end);
  print_table("workload-specific (tracing off)", r.extra);
  print_table("per-layer (traced run)", per_layer);
  for (const std::string& why : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  scalfrag::obs::JsonWriter d;
  d.begin_object();
  d.key("detail").begin_object();
  d.kv("workload", r.workload);
  d.key("facts").begin_object();
  for (const auto& [k, v] : r.facts) d.kv(k, v);
  d.end_object();
  d.key("metrics").begin_object();
  write_metric_objects(d, r.end_to_end, true);
  write_metric_objects(d, r.extra, true);
  write_metric_objects(d, per_layer, true);
  d.end_object();
  d.key("repeat").begin_object();
  for (const auto& [k, v] : r.repeat) d.kv(k, v);
  d.end_object();
  d.key("check_failures").begin_array();
  for (const std::string& why : r.check_failures) d.value(why);
  d.end_array();
  d.end_object();
  d.end_object();
  std::printf("%s\n", d.str().c_str());

  scalfrag::obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", r.failed == 0);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.key("metrics").begin_object();
  write_metric_objects(w, trace ? per_layer : r.end_to_end, false);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
