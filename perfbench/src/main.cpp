// perfbench — the repository benchmark (README.md).
//
//   perfbench --workload <cpd-flickr3d|ooc-nell2|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>] [--smoke]
//
// Prints a readable table, one `detail` JSON line and, last, the result
// line: {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output check failed and 2 on a usage or configuration error (then
// without a result line).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct Workload {
  RunResult (*run)(const Options&);
  /// Threads the workload keeps runnable at once: one per op for the
  /// single-op workloads; for serve-mix the two device workers and the
  /// scheduler (its four clients block on their own jobs).
  std::size_t busy_threads;
  std::size_t client_threads;
  int devices;
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"cpd-flickr3d", {perfbench::run_cpd_flickr3d, 1, 0, 1}},
      {"ooc-nell2", {perfbench::run_ooc_nell2, 1, 0, 1}},
      {"serve-mix", {perfbench::run_serve_mix, 3, 4, 2}},
  };
  return w;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--trace-file") {
        o.trace_file = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto it = workloads().find(opt.workload);
  if (it == workloads().end()) usage("unknown workload " + opt.workload);
  const Workload& w = it->second;

  // More runnable threads than CPUs would time the scheduler's
  // time-slicing, not the program: refuse instead of reporting it.
  const std::size_t cpus = perfbench::usable_cpus();
  if (w.busy_threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %zu threads busy but only %zu CPUs are "
                 "usable; refusing to measure\n",
                 opt.workload.c_str(), w.busy_threads, cpus);
    return 2;
  }

  RunResult r;
  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  try {
    r = w.run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  // Steal marks a run measured while other tenants held the host's
  // CPUs; wall-clock figures from such a run read slow.
  r.facts["cpu_steal_pct"] = std::to_string(
      100.0 * perfbench::steal_share(ticks0, perfbench::cpu_ticks()));
  r.facts["nproc"] = std::to_string(cpus);
  r.facts["kernel_isa"] = perfbench::kernel_isa();
  r.facts["host_threads_per_op"] = "1";
  r.facts["busy_threads"] = std::to_string(w.busy_threads);
  r.facts["client_threads"] = std::to_string(w.client_threads);
  r.facts["devices"] = std::to_string(w.devices) + " x simulated RTX 3090";
  r.facts["seed"] = std::to_string(opt.seed);
  r.facts["trace"] = opt.trace ? "1" : "0";
  try {
    perfbench::print_result(r, opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return r.failed == 0 ? 0 : 1;
}
