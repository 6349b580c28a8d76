// ooc-nell2: one out-of-core pass per op — StreamingPlan::run_file over
// every mode of nell-2, written once as .tns in set-up, under a memory
// budget of about a ninth of the tensor. Text ingest, window sort and
// spill, and the k-way merge take nearly all of the op while the
// kernel takes about 1%, so io_stream and external_sort changes show
// here and CPD-path changes should not.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>

#include "common/rng.hpp"
#include "scalfrag/streaming.hpp"
#include "stats.hpp"
#include "tensor/external_sort.hpp"
#include "tensor/generator.hpp"
#include "tensor/io_stream.hpp"
#include "tensor/io_tns.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scalfrag;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kBudget = std::size_t{512} << 10;

/// Serial host strategy: the fixed accumulation order makes the streamed
/// output comparable bit for bit with the in-core run.
ExecConfig ooc_config() {
  return single_thread_config().strategy(HostStrategy::Serial).memory_budget(kBudget);
}

/// One op's outputs and the counts that must repeat.
struct Pass {
  std::vector<DenseMatrix> out;  // one per mode
  sim_ns sim = 0;
  std::uint64_t windows = 0, chunks = 0, spill_bytes = 0, merge_passes = 0;
};

Pass run_pass(gpusim::SimDevice& dev, const LaunchSelector& sel,
              const std::string& path, const FactorList& f,
              const ExecConfig& cfg) {
  Pass p;
  StreamingPlan plan(dev, &sel);
  for (order_t mode = 0; mode < f.size(); ++mode) {
    StreamingResult s = plan.run_file(path, f, mode, cfg);
    p.sim += s.total_ns;
    p.windows += s.windows;
    p.chunks += s.chunks;
    p.spill_bytes += s.spill_bytes;
    p.merge_passes += s.merge_passes;
    p.out.push_back(std::move(s.output));
  }
  return p;
}

bool same_pass(const Pass& a, const Pass& b) {
  if (a.sim != b.sim || a.windows != b.windows || a.chunks != b.chunks ||
      a.spill_bytes != b.spill_bytes || a.merge_passes != b.merge_passes ||
      a.out.size() != b.out.size()) {
    return false;
  }
  for (std::size_t m = 0; m < a.out.size(); ++m) {
    if (!same_bits(a.out[m], b.out[m])) return false;
  }
  return true;
}

struct TracedPass {
  Pass pass;
  std::vector<Span> spans;
  obs::MetricsSnapshot met;
  gpusim::TimelineBreakdown sim;
  std::uint64_t select_calls = 0;
};

/// StreamingPlan::run_file rebuilt from the public calls it makes
/// (TnsChunkReader::next, ExternalSorter::add_window and merge, one
/// run_pipeline per merged chunk), with a span around each and around
/// the merge's chunk callback.
TracedPass traced_pass(gpusim::SimDevice& dev, const LaunchSelector& sel,
                       const std::string& path, const FactorList& f,
                       const ExecConfig& cfg) {
  constexpr std::uint64_t kOp = 1;
  TracedPass t;
  Tracer tracer;
  obs::MetricsRegistry met;
  ExecConfig sub = cfg;
  sub.backend("coo").metrics(&met);
  const std::size_t window_bytes = std::max<std::size_t>(1 << 10, kBudget / 4);
  const std::size_t chunk_bytes = std::max<std::size_t>(1 << 10, kBudget / 2);
  {
    Tracer::Scope op(&tracer, "streaming.op", kOp);
    for (order_t mode = 0; mode < f.size(); ++mode) {
      std::ifstream in(path);
      TnsChunkOptions ropt;
      ropt.max_chunk_bytes = window_bytes;
      ropt.metrics = &met;
      TnsChunkReader reader(in, ropt);
      ExternalSortOptions sopt;
      sopt.mode = mode;
      sopt.metrics = &met;
      ExternalSorter sorter(sopt);
      CooTensor window;
      for (;;) {
        bool more = false;
        {
          Tracer::Scope s(&tracer, "io_stream.next", kOp);
          more = reader.next(window);
        }
        if (!more) break;
        Tracer::Scope s(&tracer, "external_sort.add_window", kOp);
        sorter.add_window(std::move(window));
        ++t.pass.windows;
      }
      std::vector<index_t> dims(f.size());
      for (order_t m = 0; m < f.size(); ++m) dims[m] = f[m].rows();
      DenseMatrix out(dims[mode], f[mode].cols());
      obs::MetricsRegistry::ScopedResident acc(&met, kLoaderResidentGauge,
                                               out.bytes());
      {
        Tracer::Scope s(&tracer, "external_sort.merge", kOp);
        sorter.merge(dims, chunk_bytes, [&](CooTensor&& chunk) {
          Tracer::Scope c(&tracer, "streaming.chunk", kOp);
          obs::MetricsRegistry::ScopedResident held(&met, kLoaderResidentGauge,
                                                    chunk.bytes());
          CooSpan view = chunk.span();
          view.assume_sorted_by(mode);
          PipelineResult pr;
          {
            Tracer::Scope p(&tracer, "pipeline.run", kOp);
            pr = run_pipeline(dev, view, f, mode, sub, &sel);
          }
          t.pass.sim += pr.total_ns;
          t.sim.h2d += pr.breakdown.h2d;
          t.sim.kernel += pr.breakdown.kernel;
          t.sim.d2h += pr.breakdown.d2h;
          t.sim.host += pr.breakdown.host;
          t.sim.makespan += pr.breakdown.makespan;
          for (const Segment& seg : pr.plan.segments) {
            t.select_calls += seg.nnz() > 0 ? 1 : 0;
          }
          ++t.pass.chunks;
          value_t* acc_p = out.data();
          const value_t* part = pr.output.data();
          for (std::size_t i = 0; i < out.size(); ++i) acc_p[i] += part[i];
        });
      }
      t.pass.spill_bytes += sorter.spill_bytes();
      t.pass.merge_passes += sorter.merge_passes();
      t.pass.out.push_back(std::move(out));
    }
  }
  t.spans = tracer.spans();
  t.met = met.snapshot();
  return t;
}

/// Removes the set-up's .tns file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

}  // namespace

RunResult run_ooc_nell2(const Options& opt) {
  RunResult r;
  r.workload = "ooc-nell2";
  const double scale = opt.smoke ? 1.0 / 8192 : 1.0 / 256;
  const std::uint64_t tensor_seed = input_seed(opt.seed, 47);
  const ExecConfig cfg = ooc_config();
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());
  FileGuard file{(fs::temp_directory_path() /
                  ("perfbench-nell2-" + std::to_string(::getpid()) + ".tns"))
                     .string()};

  // --- set-up, repeated: generate, train, write .tns, warm up ----------
  // The warm-up streams mode 0 once, so the first timed op starts warm.
  std::vector<double> setup_s, gen_s, train_s;
  std::optional<CooTensor> x;
  std::optional<TrainedSelector> sel;
  FactorList f;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    x.emplace(make_frostt_tensor("nell-2", scale, tensor_seed));
    gen_s.push_back(seconds_since(t0));
    sel.emplace(train_selector());
    train_s.push_back(sel->train_s);
    write_tns_file(file.path, *x);
    f.clear();
    Rng rng(tensor_seed + 1);
    for (order_t m = 0; m < x->order(); ++m) {
      DenseMatrix a(x->dim(m), kRank);
      a.randomize(rng);
      f.push_back(std::move(a));
    }
    StreamingPlan(dev, &sel->selector).run_file(file.path, f, 0, cfg);
    setup_s.push_back(seconds_since(t0));
  }

  // --- timed window ----------------------------------------------------
  std::optional<Pass> first;
  double window_s = 0.0;
  const std::vector<double> op_s = timed_window(opt, window_s, [&] {
    Pass p = run_pass(dev, sel->selector, file.path, f, cfg);
    ++r.attempted;
    if (!first) {
      first = std::move(p);
    } else if (!same_pass(p, *first)) {
      r.fail("a timed pass differs from the first");
    }
  });

  // --- output check: bit-identical to the in-core "coo" run -----------
  for (order_t mode = 0; mode < x->order(); ++mode) {
    ++r.attempted;
    CooTensor sorted = *x;
    sorted.sort_by_mode(mode);
    CooSpan view = sorted.span();
    view.assume_sorted_by(mode);
    gpusim::SimDevice dev2(gpusim::DeviceSpec::rtx3090());
    const PipelineResult want =
        run_pipeline(dev2, view, f, mode, cfg, &sel->selector);
    if (!same_bits(first->out[mode], want.output)) {
      r.fail("mode-" + std::to_string(mode) +
             " streamed output differs from the in-core coo run");
    }
  }

  add_end_to_end(r, op_s, static_cast<double>(op_s.size()) / window_s,
                 op_s.size(), static_cast<double>(first->sim) * 1e-6, 1,
                 setup_s);

  r.repeat["sim_ns"] = static_cast<double>(first->sim);
  r.repeat["nnz"] = static_cast<double>(x->nnz());
  r.repeat["windows"] = static_cast<double>(first->windows);
  r.repeat["chunks"] = static_cast<double>(first->chunks);
  r.repeat["spill_bytes"] = static_cast<double>(first->spill_bytes);
  r.repeat["merge_passes"] = static_cast<double>(first->merge_passes);

  r.facts["scale"] = "1/" + std::to_string(std::lround(1.0 / scale));
  r.facts["tensor"] = "nell-2 seed " + std::to_string(tensor_seed) + ", " +
                      std::to_string(x->nnz()) + " nnz, " +
                      std::to_string(x->bytes() >> 10) + " KiB in core";
  r.facts["memory_budget"] = std::to_string(kBudget >> 10) + " KiB";

  if (!opt.trace) return r;

  // --- traced run ------------------------------------------------------
  const TracedPass tr = traced_pass(dev, sel->selector, file.path, f, cfg);
  ++r.attempted;
  if (!same_pass(tr.pass, *first)) {
    r.fail("traced rebuild does not reproduce StreamingPlan::run_file");
  }
  if (!opt.trace_file.empty() && !write_chrome_trace(tr.spans, opt.trace_file)) {
    r.fail("cannot write " + opt.trace_file);
  }
  const SpanTotals tot(tr.spans);
  const auto chunks = static_cast<double>(tr.pass.chunks);
  const double file_mib = static_cast<double>(fs::file_size(file.path)) / kMiB;

  r.layer("generator.busy_s", median(gen_s), gen_s.size());
  r.layer("autotune.train_s", median(train_s), train_s.size());
  r.layer("autotune.select_calls", static_cast<double>(tr.select_calls));
  add_kernel_layers(r, tr.met, tot.total_s("pipeline.run"), tot.count("pipeline.run"));
  add_sim_layers(r, tr.sim, tr.met);
  r.layer("io_stream.busy_s", tot.total_s("io_stream.next"), tot.count("io_stream.next"));
  r.layer("io_stream.mib", file_mib * static_cast<double>(x->order()));
  r.layer("external_sort.spill_s", tot.total_s("external_sort.add_window"),
          tot.count("external_sort.add_window"));
  r.layer("external_sort.spill_mib", static_cast<double>(tr.pass.spill_bytes) / kMiB);
  r.layer("external_sort.runs", static_cast<double>(tr.pass.windows));
  r.layer("external_sort.merge_s", tot.self_s("external_sort.merge"),
          tot.count("external_sort.merge"));
  r.layer("external_sort.merge_passes", static_cast<double>(tr.pass.merge_passes));
  r.layer("streaming.chunk_s", tot.self_s("streaming.chunk"), tr.pass.chunks);
  r.layer("streaming.chunks", chunks);
  r.layer("streaming.overrun_frac",
          static_cast<double>(tr.met.counter(kBudgetOverrunsCounter)) / chunks);
  r.layer("streaming.resident_peak_mib",
          tr.met.gauge(std::string(kLoaderResidentGauge) + "_peak") / kMiB);
  add_trace_metrics(r, tot.total_s("streaming.op"), median(op_s),
                    tot.self_s("streaming.op") / tot.total_s("streaming.op"));
  return r;
}

}  // namespace perfbench
