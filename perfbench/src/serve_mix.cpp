// serve-mix: DecompositionService on two simulated RTX 3090s, driven in
// a closed loop by four client threads (each submits its next job only
// after its last one returns). Two tenants, weighted 3:1, cycle a fixed
// eight-job mix; one job in eight names a fresh tensor seed and so
// misses both cache levels. Jobs take milliseconds to a few hundred
// milliseconds, so the service's own layers (queue, admission, plan
// cache, leases) stay visible next to execution, and "auto" reaches
// the joint selector and the CSF backend, which no other workload does.
//
// The service keeps every finished JobResult, so its memory grows with
// the jobs it has served. A run therefore serves sessions of a fixed
// number of jobs, each on a fresh service: peak RSS then depends on the
// session length, not on how many jobs a fast or slow run completes.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "scalfrag/backend_registry.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "tensor/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scalfrag;
using service::DecompositionService;
using service::JobKind;
using service::JobResult;
using service::JobSpec;
using service::JobState;

namespace {

constexpr int kClients = 4;
constexpr int kDevices = 2;
constexpr std::size_t kCycle = 8;
constexpr std::size_t kFreshSlot = 7;
constexpr std::size_t kAutoSlot = 3;
/// Jobs per session: 30 passes of the mix.
constexpr std::size_t kSessionJobs = 30 * kCycle;

struct Slot {
  const char* tenant;
  int weight;
  JobKind kind;
  const char* tensor;
  const char* backend;
  order_t mode;
  std::uint64_t seed_salt;  // one input seed per tensor, shared by slots
};

// Slot kFreshSlot names a fresh tensor seed on every job.
constexpr Slot kMix[kCycle] = {
    {"a", 3, JobKind::Mttkrp, "flickr-3d", "coo", 0, 61},
    {"a", 3, JobKind::Cpd, "nell-2", "coo", 0, 62},
    {"a", 3, JobKind::Mttkrp, "flickr-3d", "coo", 1, 61},
    {"a", 3, JobKind::Mttkrp, "nell-2", "auto", 0, 62},
    {"a", 3, JobKind::Mttkrp, "enron", "coo", 0, 63},
    {"a", 3, JobKind::Tucker, "uber", "coo", 0, 64},
    {"b", 1, JobKind::Cpd, "enron", "coo", 0, 63},
    {"b", 1, JobKind::Mttkrp, "uber", "coo", 0, 64},
};

struct Mix {
  double scale;
  std::uint64_t run_seed;
  std::vector<index_t> tucker_core;

  /// Input seed of a job; `job` numbers every job the run submits.
  std::uint64_t tensor_seed(std::size_t slot, std::uint64_t job) const {
    return slot == kFreshSlot ? input_seed(run_seed, 1'000'000 + job)
                              : input_seed(run_seed, kMix[slot].seed_salt);
  }

  JobSpec spec(std::size_t slot, std::uint64_t job) const {
    const Slot& s = kMix[slot];
    JobSpec j;
    j.tenant = s.tenant;
    j.weight = s.weight;
    j.kind = s.kind;
    j.tensor = s.tensor;
    j.scale = scale;
    j.tensor_seed = tensor_seed(slot, job);
    j.mode = s.mode;
    j.factor_seed = 11;
    j.exec = single_thread_config().backend(s.backend).rank(kRank);
    if (s.kind == JobKind::Cpd) j.exec.max_iters(5).tol(0.0);
    if (s.kind == JobKind::Tucker) {
      j.exec.max_iters(5).tol(0.0).core_dims(tucker_core);
    }
    return j;
  }
};

/// What a client keeps of one job (the outputs stay in the service
/// until the session is checked).
struct JobRecord {
  std::size_t slot = 0;
  std::uint64_t id = 0;
  double latency_s = 0.0;
  JobKind kind = JobKind::Mttkrp;
  std::string backend;
  double queue_wait_s = 0.0, prepare_s = 0.0, exec_s = 0.0;
  int device = -1;
  sim_ns sim = 0;
  obs::MetricsSnapshot met;
};

struct Session {
  double setup_s = 0.0;
  double train_s = 0.0;
  double window_s = 0.0;
  double rss_growth_mib = 0.0;
  std::vector<JobRecord> jobs;
  obs::MetricsSnapshot before, after;  // service registry around the window
  std::vector<Span> spans;
};

/// The output of a direct call of the same spec through the public entry
/// points (run_mttkrp_backend, cpd_als, tucker_hooi).
struct Expected {
  DenseMatrix mttkrp;
  std::optional<CpdResult> cpd;
  std::optional<TuckerResult> tucker;
};

/// `gen_s`, when given, receives the generation time of each distinct
/// tensor once.
Expected direct_call(const JobSpec& spec, const LaunchSelector& sel,
                     std::map<std::string, double>* gen_s) {
  const std::int64_t t0 = now_ns();
  const CooTensor t = make_frostt_tensor(spec.tensor, spec.scale, spec.tensor_seed);
  if (gen_s != nullptr) {
    gen_s->emplace(spec.tensor, seconds_since(t0));
  }
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  Expected e;
  switch (spec.kind) {
    case JobKind::Mttkrp: {
      FactorList f;
      Rng rng(spec.factor_seed);
      for (order_t m = 0; m < t.order(); ++m) {
        DenseMatrix a(t.dim(m), spec.exec.decomp_rank);
        a.randomize(rng);
        f.push_back(std::move(a));
      }
      CooTensor sorted = t;
      sorted.sort_by_mode(spec.mode);
      CooSpan view = sorted.span();
      view.assume_sorted_by(spec.mode);
      e.mttkrp = run_mttkrp_backend(dev, view, f, spec.mode, spec.exec, &sel).output;
      break;
    }
    case JobKind::Cpd:
      e.cpd = cpd_als(t, spec.exec, &dev, &sel);
      break;
    case JobKind::Tucker:
      e.tucker = tucker_hooi(t, spec.exec, &dev);
      break;
  }
  return e;
}

bool matches(const JobResult& r, const Expected& e) {
  switch (r.spec.kind) {
    case JobKind::Mttkrp:
      return same_bits(r.mttkrp_output, e.mttkrp);
    case JobKind::Cpd: {
      if (!r.cpd || r.cpd->fit_history != e.cpd->fit_history ||
          r.cpd->lambda != e.cpd->lambda) {
        return false;
      }
      for (std::size_t m = 0; m < e.cpd->factors.size(); ++m) {
        if (!same_bits(r.cpd->factors[m], e.cpd->factors[m])) return false;
      }
      return true;
    }
    case JobKind::Tucker: {
      if (!r.tucker || r.tucker->fit_history != e.tucker->fit_history ||
          r.tucker->core.size() != e.tucker->core.size() ||
          std::memcmp(r.tucker->core.data(), e.tucker->core.data(),
                      e.tucker->core.size() * sizeof(value_t)) != 0) {
        return false;
      }
      for (std::size_t m = 0; m < e.tucker->factors.size(); ++m) {
        if (!same_bits(r.tucker->factors[m], e.tucker->factors[m])) return false;
      }
      return true;
    }
  }
  return false;
}

/// One session: train, start a service, warm its caches with one pass
/// of the mix, then serve kSessionJobs jobs from four closed-loop
/// clients. `first_job` numbers the session's jobs within the run.
/// Every served output is checked against a direct call before
/// the service is shut down.
Session run_session(const Mix& mix, std::uint64_t first_job, Tracer* tracer,
                    std::map<std::size_t, Expected>& expected,
                    std::map<std::string, double>* gen_s, RunResult& r) {
  Session s;
  const std::int64_t t0 = now_ns();
  const TrainedSelector sel = train_selector();
  s.train_s = sel.train_s;
  service::ServiceOptions so;
  so.num_devices = kDevices;
  so.launch = &sel.selector;
  DecompositionService svc(so);
  {
    std::vector<JobSpec> warm;
    for (std::size_t slot = 0; slot < kCycle; ++slot) {
      warm.push_back(mix.spec(slot, first_job + kSessionJobs + slot));
    }
    for (const JobResult& w : svc.run_batch(std::move(warm))) {
      ++r.attempted;
      if (w.state != JobState::Completed) {
        r.fail("warm-up job " + std::to_string(w.id) + " " +
               service::job_state_name(w.state) + ": " + w.error);
      }
    }
  }
  s.setup_s = seconds_since(t0);

  const double rss0 = current_rss_mib();
  s.before = svc.metrics().snapshot();
  s.jobs.resize(kSessionJobs);
  // Clients take the next job of the cycle and submit it under one lock,
  // so the service receives the jobs in cycle order whatever the
  // clients' timing. Device assignment is a function of that order, so
  // every session loads the two devices the same way.
  std::mutex submit_mu;
  std::size_t next = 0;
  const std::int64_t w0 = now_ns();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          std::size_t j = 0;
          std::uint64_t id = 0;
          std::int64_t a = 0;
          std::optional<Tracer::Scope> job;
          {
            std::lock_guard<std::mutex> lock(submit_mu);
            j = next++;
            if (j >= kSessionJobs) return;
            job.emplace(tracer, "service.job", first_job + j + 1);
            a = now_ns();
            Tracer::Scope sub(tracer, "service.submit", first_job + j + 1);
            id = svc.submit(mix.spec(j % kCycle, first_job + j));
          }
          JobResult res;
          {
            Tracer::Scope wt(tracer, "service.wait", first_job + j + 1);
            res = svc.wait(id);
          }
          JobRecord& rec = s.jobs[j];
          rec.latency_s = seconds_since(a);
          rec.slot = j % kCycle;
          rec.id = id;
          rec.kind = res.spec.kind;
          rec.backend = res.info.backend;
          rec.queue_wait_s = res.queue_wait_seconds;
          rec.prepare_s = res.prepare_seconds;
          rec.exec_s = res.exec_seconds;
          rec.device = res.device;
          rec.sim = res.sim_cost_ns;
          rec.met = std::move(res.info.metrics);
        }
      });
    }
  }
  s.window_s = seconds_since(w0);
  s.after = svc.metrics().snapshot();
  s.rss_growth_mib = current_rss_mib() - rss0;
  if (tracer != nullptr) s.spans = tracer->spans();

  // --- output checks, outside the window ------------------------------
  for (std::size_t j = 0; j < kSessionJobs; ++j) {
    const JobRecord& rec = s.jobs[j];
    ++r.attempted;
    const JobResult res = svc.wait(rec.id);
    if (res.state != JobState::Completed) {
      r.fail("job " + std::to_string(j) + " " +
             service::job_state_name(res.state) + ": " + res.error);
      continue;
    }
    std::optional<Expected> fresh;
    const Expected* want = nullptr;
    if (rec.slot == kFreshSlot) {
      fresh = direct_call(res.spec, sel.selector, nullptr);
      want = &*fresh;
    } else {
      auto it = expected.find(rec.slot);
      if (it == expected.end()) {
        it = expected.emplace(rec.slot, direct_call(res.spec, sel.selector, gen_s)).first;
      }
      want = &it->second;
    }
    if (!matches(res, *want)) {
      r.fail("job " + std::to_string(j) + " (" + kMix[rec.slot].tensor + " " +
             service::job_kind_name(rec.kind) +
             ") differs from a direct call of its spec");
    }
  }
  return s;
}

double counter_delta(const Session& s, const std::string& name) {
  return static_cast<double>(s.after.counter(name) - s.before.counter(name));
}

}  // namespace

RunResult run_serve_mix(const Options& opt) {
  RunResult r;
  r.workload = "serve-mix";
  Mix mix;
  mix.scale = opt.smoke ? 1.0 / 8192 : 1.0 / 256;
  mix.run_seed = opt.seed;
  // Tucker core dims inside every scaled mode size of uber.
  for (index_t d : frostt_profile("uber").scaled(mix.scale).dims) {
    mix.tucker_core.push_back(std::min<index_t>(2, d));
  }

  std::map<std::size_t, Expected> expected;
  std::map<std::string, double> gen_s;
  std::vector<Session> sessions;
  double window_s = 0.0;
  while (sessions.empty() ||
         (!opt.smoke && (sessions.size() < 3 || window_s < opt.seconds))) {
    sessions.push_back(run_session(mix, sessions.size() * 2 * kSessionJobs,
                                   nullptr, expected, &gen_s, r));
    window_s += sessions.back().window_s;
    // Hand the finished service's heap back to the OS, so each session
    // starts from the same resident set and the peak does not depend on
    // how many sessions the window held.
    malloc_trim(0);
  }

  // --- end-to-end, over every timed job of every session --------------
  std::vector<double> latency, setup, rate;
  std::map<std::size_t, sim_ns> slot_sim;
  for (const Session& s : sessions) {
    setup.push_back(s.setup_s);
    rate.push_back(static_cast<double>(s.jobs.size()) / s.window_s);
    for (const JobRecord& j : s.jobs) {
      latency.push_back(j.latency_s);
      if (j.slot == kFreshSlot || j.slot == kAutoSlot) continue;
      const auto [it, fresh] = slot_sim.emplace(j.slot, j.sim);
      if (!fresh && it->second != j.sim) {
        r.fail("slot " + std::to_string(j.slot) +
               " simulated time differs between identical jobs");
      }
    }
  }
  // Device time per job of the mix's fixed-backend jobs. The "auto" job
  // is left out: its backend is the selector's choice, so a selector
  // change that moves it onto the device is not a simulated regression.
  sim_ns sim_sum = 0;
  for (const auto& [slot, ns] : slot_sim) sim_sum += ns;
  const double sim_ms =
      static_cast<double>(sim_sum) * 1e-6 / static_cast<double>(slot_sim.size());

  add_end_to_end(r, latency, median(rate), rate.size(), sim_ms, slot_sim.size(),
                 setup);
  if (const auto p90 = tail_percentile(latency, 0.9)) {
    r.add(r.extra, "op_s_p90", *p90, "s", latency.size(), "wall");
  }

  const Session& first = sessions.front();
  r.repeat["sim_ns_per_cycle"] = static_cast<double>(sim_sum);
  r.repeat["session_cache_hits"] = counter_delta(first, "service/cache_hits");
  r.repeat["session_cache_misses"] = counter_delta(first, "service/cache_misses");
  r.repeat["session_tensor_cache_misses"] =
      counter_delta(first, "service/tensor_cache_misses");

  r.facts["scale"] = "1/" + std::to_string(std::lround(1.0 / mix.scale));
  r.facts["sessions"] = std::to_string(sessions.size()) + " x " +
                        std::to_string(kSessionJobs) + " jobs";
  r.facts["mix"] =
      "flickr-3d mttkrp m0/m1, nell-2 cpd, nell-2 mttkrp auto, enron mttkrp, "
      "uber tucker, enron cpd (tenant b), fresh-seed uber mttkrp (tenant b)";

  if (!opt.trace) return r;

  // --- traced session --------------------------------------------------
  Tracer tracer;
  const Session t = run_session(mix, sessions.size() * 2 * kSessionJobs,
                                &tracer, expected, nullptr, r);
  if (!opt.trace_file.empty() && !write_chrome_trace(t.spans, opt.trace_file)) {
    r.fail("cannot write " + opt.trace_file);
  }
  const auto n = static_cast<double>(t.jobs.size());
  std::vector<double> traced_latency, queue, device_wait;
  std::map<JobKind, std::vector<double>> exec;
  std::vector<double> device_exec(kDevices, 0.0);
  double exec_sum = 0.0, prepare_sum = 0.0, auto_jobs = 0.0, auto_csf = 0.0;
  double kernel_s = 0.0, seg_s = 0.0, seg_calls = 0.0, nnz = 0.0;
  double h2d_ns = 0.0, sim_kernel_ns = 0.0, d2h_ns = 0.0, overlap_ns = 0.0;
  std::uint64_t h2d_bytes = 0, launches = 0, kernel_calls = 0;
  for (const JobRecord& j : t.jobs) {
    traced_latency.push_back(j.latency_s);
    queue.push_back(j.queue_wait_s);
    device_wait.push_back(j.latency_s - j.queue_wait_s - j.prepare_s - j.exec_s);
    exec[j.kind].push_back(j.exec_s);
    exec_sum += j.exec_s;
    device_exec.at(static_cast<std::size_t>(j.device)) += j.exec_s;
    prepare_sum += j.prepare_s;
    if (j.slot == kAutoSlot) {
      ++auto_jobs;
      auto_csf += j.backend.rfind("csf_tiled", 0) == 0 ? 1.0 : 0.0;
    }
    const obs::StageStat k = stage(j.met, "host/mttkrp");
    const obs::StageStat sg = stage(j.met, "host/segmentation");
    kernel_s += k.total_ns * 1e-9;
    kernel_calls += k.count;
    seg_s += sg.total_ns * 1e-9;
    seg_calls += static_cast<double>(sg.count);
    nnz += static_cast<double>(j.met.counter("host/nnz"));
    // Simulated engine busy time from the job's recorded timelines;
    // overlap is their serial sum minus the job's device time.
    const double h2d = stage(j.met, "gpu/H2D").total_ns;
    const double ker = stage(j.met, "gpu/Kernel").total_ns;
    const double d2h = stage(j.met, "gpu/D2H").total_ns;
    const double host = stage(j.met, "gpu/Host").total_ns;
    h2d_ns += h2d;
    sim_kernel_ns += ker;
    d2h_ns += d2h;
    if (h2d + ker + d2h + host > 0) {
      overlap_ns += h2d + ker + d2h + host - static_cast<double>(j.sim);
    }
    h2d_bytes += j.met.counter("gpu/h2d_bytes");
    launches += j.met.counter("gpu/kernel_launches");
  }
  // Per-job means: the session's job list is fixed, so the counts repeat.
  double gen_total = 0.0;
  for (const auto& [name, secs] : gen_s) gen_total += secs;
  r.layer("generator.busy_s", gen_total, gen_s.size());
  r.layer("autotune.train_s", t.train_s);
  r.layer("segmenter.busy_s", seg_s / n, static_cast<std::size_t>(seg_calls));
  r.layer("segmenter.calls", seg_calls / n);
  r.layer("mttkrp_par.busy_s", kernel_s / n, kernel_calls);
  r.layer("mttkrp_par.nnz", nnz / n);
  r.layer("gpusim.h2d_ms", h2d_ns * 1e-6 / n);
  r.layer("gpusim.kernel_ms", sim_kernel_ns * 1e-6 / n);
  r.layer("gpusim.d2h_ms", d2h_ns * 1e-6 / n);
  r.layer("gpusim.overlap_ms", overlap_ns * 1e-6 / n);
  r.layer("gpusim.h2d_mib", static_cast<double>(h2d_bytes) / kMiB / n);
  r.layer("gpusim.launches", static_cast<double>(launches) / n);
  r.layer("job_queue.wait_s", median(queue), queue.size());
  r.layer("service.device_wait_s", median(device_wait), device_wait.size());
  r.layer("service.exec_s.cpd", median(exec[JobKind::Cpd]), exec[JobKind::Cpd].size());
  r.layer("service.exec_s.mttkrp", median(exec[JobKind::Mttkrp]),
          exec[JobKind::Mttkrp].size());
  r.layer("service.exec_s.tucker", median(exec[JobKind::Tucker]),
          exec[JobKind::Tucker].size());
  r.layer("service.busy_frac", exec_sum / (kDevices * t.window_s), t.jobs.size());
  r.layer("service.load_imbalance",
          *std::max_element(device_exec.begin(), device_exec.end()) /
              (exec_sum / kDevices),
          t.jobs.size());
  r.layer("service.prepare_s", prepare_sum / n, t.jobs.size());
  r.layer("service.rss_growth_mib", t.rss_growth_mib);
  const double hits = counter_delta(t, "service/cache_hits");
  const double misses = counter_delta(t, "service/cache_misses");
  r.layer("plan_cache.hit_ratio", hits / (hits + misses),
          static_cast<std::size_t>(hits + misses));
  const double thits = counter_delta(t, "service/tensor_cache_hits");
  const double tmisses = counter_delta(t, "service/tensor_cache_misses");
  r.layer("plan_cache.tensor_hit_ratio", thits / (thits + tmisses),
          static_cast<std::size_t>(thits + tmisses));
  r.layer("format_select.auto_csf_frac", auto_csf / auto_jobs,
          static_cast<std::size_t>(auto_jobs));

  const SpanTotals tot(t.spans);
  add_trace_metrics(r, median(traced_latency), median(latency),
                    tot.self_s("service.job") / tot.total_s("service.job"),
                    traced_latency.size());
  return r;
}

}  // namespace perfbench
