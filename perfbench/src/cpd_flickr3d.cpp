// cpd-flickr3d: one CPD-ALS decomposition per op through cpd_als with
// the "coo" backend on one simulated RTX 3090, adaptive launch from a
// selector trained in set-up. The 220 K-row mode makes the kernel, the
// per-replay segmentation and the ALS algebra share the op about
// evenly, so a change to any of them shows here.

#include <cmath>
#include <optional>

#include "common/rng.hpp"
#include "scalfrag/cpd.hpp"
#include "stats.hpp"
#include "tensor/generator.hpp"
#include "tensor/linalg.hpp"
#include "tensor/mode_views.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace scalfrag;

namespace {

constexpr int kIters = 10;
constexpr double kFitTolerance = 1e-6;

ExecConfig cpd_config() {
  return single_thread_config().backend("coo").rank(kRank).max_iters(kIters).tol(0.0);
}

/// What the traced rebuild measured, besides its result.
struct TracedCpd {
  CpdResult result;
  std::vector<Span> spans;
  obs::MetricsSnapshot met;
  gpusim::TimelineBreakdown sim;  // summed over every replay
  std::uint64_t select_calls = 0;
};

/// cpd_als's single-device "coo" path rebuilt from the public calls it
/// makes (ModeViews, MttkrpPlan, run_on, linalg), with a span around
/// each. It must reproduce cpd_als bit for bit; the caller checks.
TracedCpd traced_cpd_als(const CooTensor& x, const ExecConfig& cfg,
                         gpusim::SimDevice& dev,
                         const LaunchSelector& selector) {
  constexpr std::uint64_t kOp = 1;
  TracedCpd out;
  Tracer tracer;
  obs::MetricsRegistry met;
  CpdResult& res = out.result;
  const index_t rank = cfg.decomp_rank;
  const order_t order = x.order();
  {
    Tracer::Scope op(&tracer, "cpd.als", kOp);
    std::optional<ModeViews> views;
    {
      Tracer::Scope s(&tracer, "mode_views.build", kOp);
      views.emplace(x, &met);
    }
    Rng rng(cfg.decomp_seed != 0 ? cfg.decomp_seed : 5);
    for (order_t m = 0; m < order; ++m) {
      DenseMatrix f(x.dim(m), rank);
      f.randomize(rng);
      res.factors.push_back(std::move(f));
    }
    res.lambda.assign(rank, 1.0);
    std::vector<DenseMatrix> grams(order);
    {
      Tracer::Scope s(&tracer, "linalg.gram", kOp);
      for (order_t m = 0; m < order; ++m) grams[m] = linalg::gram(res.factors[m]);
    }
    double norm_x_sq = 0.0;
    for (value_t v : x.values()) {
      norm_x_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    const double norm_x = std::sqrt(norm_x_sq);

    std::optional<MttkrpPlan> plan;
    {
      Tracer::Scope s(&tracer, "plan.build", kOp);
      ExecConfig plan_cfg = cfg;
      plan_cfg.metrics(&met);
      plan.emplace(std::move(*views), rank, dev, &selector, plan_cfg);
      views.reset();
    }
    for (order_t m = 0; m < order; ++m) {
      for (const Segment& seg : plan->mode(m).segments.segments) {
        out.select_calls += seg.nnz() > 0 ? 1 : 0;
      }
    }

    for (int it = 0; it < cfg.decomp_max_iters; ++it) {
      DenseMatrix last_m;
      for (order_t mode = 0; mode < order; ++mode) {
        DenseMatrix m;
        {
          Tracer::Scope s(&tracer, "plan.replay", kOp);
          PipelineResult r = plan->run_on(dev, res.factors, mode, &met);
          res.mttkrp_sim_ns += r.total_ns;
          ++res.mttkrp_calls;
          out.sim.h2d += r.breakdown.h2d;
          out.sim.kernel += r.breakdown.kernel;
          out.sim.d2h += r.breakdown.d2h;
          out.sim.host += r.breakdown.host;
          out.sim.makespan += r.breakdown.makespan;
          m = std::move(r.output);
        }
        DenseMatrix v(rank, rank, 1.0f);
        {
          Tracer::Scope s(&tracer, "linalg.hadamard", kOp);
          for (order_t o = 0; o < order; ++o) {
            if (o != mode) linalg::hadamard_inplace(v, grams[o]);
          }
        }
        DenseMatrix inv;
        {
          Tracer::Scope s(&tracer, "linalg.pinv_spd", kOp);
          inv = linalg::pinv_spd(v);
        }
        DenseMatrix updated;
        {
          Tracer::Scope s(&tracer, "linalg.matmul", kOp);
          updated = linalg::matmul(m, inv);
        }
        {
          Tracer::Scope s(&tracer, "linalg.normalize", kOp);
          const std::vector<double> norms = linalg::column_norms(updated);
          for (index_t f = 0; f < rank; ++f) {
            res.lambda[f] = norms[f] > 1e-30 ? norms[f] : 1.0;
          }
          for (index_t i = 0; i < updated.rows(); ++i) {
            value_t* row = updated.row(i);
            for (index_t f = 0; f < rank; ++f) {
              row[f] = static_cast<value_t>(row[f] / res.lambda[f]);
            }
          }
        }
        res.factors[mode] = std::move(updated);
        {
          Tracer::Scope s(&tracer, "linalg.gram", kOp);
          grams[mode] = linalg::gram(res.factors[mode]);
        }
        if (mode + 1 == order) last_m = std::move(m);
      }
      Tracer::Scope s(&tracer, "linalg.fit", kOp);
      double norm_model_sq = 0.0;
      for (index_t f = 0; f < rank; ++f) {
        for (index_t g = 0; g < rank; ++g) {
          double prod = res.lambda[f] * res.lambda[g];
          for (order_t o = 0; o < order; ++o) prod *= grams[o](f, g);
          norm_model_sq += prod;
        }
      }
      const order_t last = static_cast<order_t>(order - 1);
      double inner = 0.0;
      for (index_t i = 0; i < res.factors[last].rows(); ++i) {
        const value_t* mrow = last_m.row(i);
        const value_t* arow = res.factors[last].row(i);
        for (index_t f = 0; f < rank; ++f) {
          inner += res.lambda[f] * static_cast<double>(mrow[f]) *
                   static_cast<double>(arow[f]);
        }
      }
      const double resid_sq =
          std::max(0.0, norm_x_sq - 2.0 * inner + norm_model_sq);
      res.fit_history.push_back(1.0 - std::sqrt(resid_sq) / norm_x);
      res.iterations = it + 1;
      // tol(0): every iteration runs, as in cpd_als.
    }
    res.final_fit = res.fit_history.back();
  }
  out.spans = tracer.spans();
  out.met = met.snapshot();
  return out;
}

bool same_cpd(const CpdResult& a, const CpdResult& b) {
  if (a.factors.size() != b.factors.size() || a.lambda != b.lambda ||
      a.fit_history != b.fit_history || a.mttkrp_sim_ns != b.mttkrp_sim_ns) {
    return false;
  }
  for (std::size_t m = 0; m < a.factors.size(); ++m) {
    if (!same_bits(a.factors[m], b.factors[m])) return false;
  }
  return true;
}

}  // namespace

RunResult run_cpd_flickr3d(const Options& opt) {
  RunResult r;
  r.workload = "cpd-flickr3d";
  const double scale = opt.smoke ? 1.0 / 8192 : 1.0 / 128;
  const std::uint64_t tensor_seed = input_seed(opt.seed, 31);
  const ExecConfig cfg = cpd_config();
  gpusim::SimDevice dev(gpusim::DeviceSpec::rtx3090());

  // --- set-up, repeated: generate, train, warm up ---------------------
  // The warm-up is a one-iteration decomposition: it builds and replays
  // the same plan, so the first timed op starts warm.
  std::vector<double> setup_s, gen_s, train_s;
  std::optional<CooTensor> x;
  std::optional<TrainedSelector> sel;
  obs::MetricsRegistry warm_met;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    x.emplace(make_frostt_tensor("flickr-3d", scale, tensor_seed));
    gen_s.push_back(seconds_since(t0));
    sel.emplace(train_selector());
    train_s.push_back(sel->train_s);
    warm_met.clear();
    cpd_als(*x, ExecConfig(cfg).max_iters(1).metrics(&warm_met), &dev,
            &sel->selector);
    setup_s.push_back(seconds_since(t0));
  }

  // --- timed window: identical decompositions, tracing off ------------
  std::optional<CpdResult> first;
  double window_s = 0.0;
  const std::vector<double> op_s = timed_window(opt, window_s, [&] {
    CpdResult res = cpd_als(*x, cfg, &dev, &sel->selector);
    ++r.attempted;
    if (!first) {
      first = std::move(res);
    } else if (!same_cpd(res, *first)) {
      r.fail("a timed decomposition differs from the first");
    }
  });

  // --- output check against the host reference ------------------------
  ++r.attempted;
  const CpdResult ref =
      cpd_als(*x, ExecConfig(cfg).backend("coo_host"), nullptr);
  if (!(std::abs(ref.final_fit - first->final_fit) <= kFitTolerance)) {
    r.fail("fit " + std::to_string(first->final_fit) +
           " disagrees with the coo_host reference " +
           std::to_string(ref.final_fit));
  }

  add_end_to_end(r, op_s, static_cast<double>(op_s.size()) / window_s,
                 op_s.size(), static_cast<double>(first->mttkrp_sim_ns) * 1e-6,
                 1, setup_s);

  const obs::MetricsSnapshot wm = warm_met.snapshot();
  r.repeat["sim_ns"] = static_cast<double>(first->mttkrp_sim_ns);
  r.repeat["nnz"] = static_cast<double>(x->nnz());
  r.repeat["warmup_launches"] = static_cast<double>(wm.counter("gpu/kernel_launches"));
  r.repeat["warmup_h2d_bytes"] = static_cast<double>(wm.counter("gpu/h2d_bytes"));
  r.repeat["mttkrp_calls"] = static_cast<double>(first->mttkrp_calls);
  r.repeat["final_fit"] = first->final_fit;

  r.facts["scale"] = "1/" + std::to_string(std::lround(1.0 / scale));
  r.facts["tensor"] = "flickr-3d seed " + std::to_string(tensor_seed) + ", " +
                      std::to_string(x->nnz()) + " nnz";
  r.facts["rank_iters"] = std::to_string(kRank) + " x " + std::to_string(kIters);
  r.facts["coo_host_fit"] = std::to_string(ref.final_fit);

  if (!opt.trace) return r;

  // --- traced run: the rebuild, spans around every layer call ---------
  const TracedCpd tr = traced_cpd_als(*x, cfg, dev, sel->selector);
  ++r.attempted;
  if (!same_cpd(tr.result, *first)) {
    r.fail("traced rebuild does not reproduce cpd_als bit for bit");
  }
  if (!opt.trace_file.empty() && !write_chrome_trace(tr.spans, opt.trace_file)) {
    r.fail("cannot write " + opt.trace_file);
  }

  const SpanTotals tot(tr.spans);
  double linalg_s = 0.0;
  for (const char* name : {"linalg.gram", "linalg.hadamard", "linalg.pinv_spd",
                           "linalg.matmul", "linalg.normalize", "linalg.fit"}) {
    linalg_s += tot.total_s(name);
  }
  r.layer("generator.busy_s", median(gen_s), gen_s.size());
  r.layer("autotune.train_s", median(train_s), train_s.size());
  r.layer("autotune.select_calls", static_cast<double>(tr.select_calls));
  r.layer("mode_views.busy_s", tot.total_s("mode_views.build"));
  r.layer("plan.build_s", tot.total_s("plan.build"));
  r.layer("plan.replay_s", tot.total_s("plan.replay"), tot.count("plan.replay"));
  add_kernel_layers(r, tr.met, tot.total_s("plan.replay"), tot.count("plan.replay"));
  r.layer("linalg.busy_s", linalg_s);
  r.layer("cpd.self_s", tot.self_s("cpd.als"));
  add_sim_layers(r, tr.sim, tr.met);
  add_trace_metrics(r, tot.total_s("cpd.als"), median(op_s),
                    tot.self_s("cpd.als") / tot.total_s("cpd.als"));
  return r;
}

}  // namespace perfbench
