// swan-train — COMA* training on the SWAN bench instance from the fixed seed
// with bench::make_teal's settings (rollout batch 4, workers auto). Timed:
// whole core::train_coma calls back to back, each from a freshly
// initialised model: at least kMinTrainings, more while the run's seconds
// last. The first training of a process also pays first-touch costs of its
// workspaces; a fixed minimum keeps that share the same in every run. The
// model is wrapped in StepClock, which forwards every call to the TealModel
// and stamps the entry of each training forward, so optimizer-step latency
// is measured from outside the trainer. The traced run adds a probe of one rollout through the
// public forward_ws/backward_ws seam and timed evaluate_model calls, both
// outside the timed training.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/teal_scheme.h"
#include "te/objective.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kMinTrainings = 2;
constexpr int kProbeRepeats = 20;
constexpr int kEvalRepeats = 5;

// Forwards every Model call to `inner`; stamps each training forward.
class StepClock final : public core::Model {
 public:
  StepClock(core::Model& inner, std::size_t capacity) : inner_(inner), stamps_(capacity) {}

  core::ModelForward forward_m(const te::Problem& pb, const te::TrafficMatrix& tm,
                               const std::vector<double>* caps) const override {
    return inner_.forward_m(pb, tm, caps);
  }
  void backward_m(const te::Problem& pb, const core::ModelForward& fwd,
                  const teal::nn::Mat& grad_logits) override {
    inner_.backward_m(pb, fwd, grad_logits);
  }
  std::vector<teal::nn::Param*> params() override { return inner_.params(); }
  int k_paths() const override { return inner_.k_paths(); }
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* caps, core::ModelForward& fwd) const override {
    inner_.forward_ws(pb, tm, caps, fwd);
  }
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* caps, core::ModelForward& fwd,
                  const core::ShardPlan& shards, core::ShardStat* stats) const override {
    const std::size_t i = calls_.fetch_add(1, std::memory_order_relaxed);
    if (i < stamps_.size()) stamps_[i] = now_s();
    inner_.forward_ws(pb, tm, caps, fwd, shards, stats);
  }
  bool supports_train_ws() const override { return inner_.supports_train_ws(); }
  void backward_ws(const te::Problem& pb, const core::ModelForward& fwd,
                   const teal::nn::Mat& grad_logits, core::TrainBackward& bws,
                   teal::nn::GradRefs grads) const override {
    inner_.backward_ws(pb, fwd, grad_logits, bws, grads);
  }

  std::size_t calls() const { return calls_.load(); }
  // Wall time of each optimizer step: from the first forward of a step to
  // the first forward of the next step in the same epoch. An epoch's last
  // step also runs validation, so it is left out.
  std::vector<double> step_ms(int epochs, int per_epoch, int batch) const {
    std::vector<double> out;
    for (int e = 0; e < epochs; ++e) {
      auto first = [&](int t0) {
        const int b = e * per_epoch + t0;
        const int n = std::min(batch, per_epoch - t0);
        return *std::min_element(stamps_.begin() + b, stamps_.begin() + b + n);
      };
      for (int t0 = 0; t0 + batch < per_epoch; t0 += batch) {
        out.push_back((first(t0 + batch) - first(t0)) * 1e3);
      }
    }
    return out;
  }

 private:
  core::Model& inner_;
  mutable std::atomic<std::size_t> calls_{0};
  mutable std::vector<double> stamps_;  // each index written by one call only
};

struct Setup {
  Instance inst;
  std::unique_ptr<core::TealModel> model;  // freshly initialised
};

// One rollout through the workspace training seam: forward_ws, then
// backward_ws of a seeded gradient, sequential inside (as each rollout runs
// inside the trainer's fan-out).
void probe_rollout(core::TealModel& model, const Instance& inst, std::uint64_t seed,
                   std::vector<double>& fwd_ms, std::vector<double>& bwd_ms) {
  const te::Problem& pb = *inst.pb;
  const std::vector<double> caps = pb.capacities();
  const core::ShardPlan plan = core::ShardPlan::sequential(pb.num_demands());
  core::ModelForward fwd;
  core::TrainBackward bws;
  teal::nn::GradAccum grads;
  grads.prepare(model.params());
  teal::nn::Mat grad_logits;
  teal::util::Rng rng(teal::util::Rng::mix_seed(seed, 11));
  teal::util::ThreadPool::ScopedInline inline_kernels;
  for (int r = 0; r <= kProbeRepeats; ++r) {  // r == 0 warms the buffers
    const te::TrafficMatrix& tm =
        inst.split.train.at(static_cast<int>(rng.uniform_int(0, inst.split.train.size() - 1)));
    const double t0 = now_s();
    model.forward_ws(pb, tm, &caps, fwd, plan, nullptr);
    const double t1 = now_s();
    grad_logits.resize(fwd.logits.rows(), fwd.logits.cols());
    for (int d = 0; d < grad_logits.rows(); ++d) {
      for (int c = 0; c < grad_logits.cols(); ++c) {
        grad_logits.at(d, c) = fwd.mask.at(d, c) != 0.0 ? rng.normal() : 0.0;
      }
    }
    grads.zero();
    const double t2 = now_s();
    model.backward_ws(pb, fwd, grad_logits, bws, grads.refs());
    const double t3 = now_s();
    if (r > 0) {
      fwd_ms.push_back((t1 - t0) * 1e3);
      bwd_ms.push_back((t3 - t2) * 1e3);
    }
  }
}

}  // namespace

void run_swan_train(const Args& args, Report& report) {
  Spans spans;
  Setup s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < args.setups; ++rep) {
    s = Setup{};  // free the previous repetition (untimed)
    const double t0 = now_s();
    s.inst = build_instance("SWAN", spans);
    s.model = spans.time("core.model_s", [&] {
      return std::make_unique<core::TealModel>(core::TealModelConfig{}, s.inst.pb->k_paths());
    });
    setup_s.push_back(now_s() - t0);
    spans.next_repetition();
    std::printf("  setup %d: %.3f s\n", rep, setup_s.back());
  }
  const te::Problem& pb = *s.inst.pb;
  const core::ComaConfig cfg = bench_coma_config(s.inst);
  const int per_epoch = s.inst.split.train.size();
  const std::size_t forwards = static_cast<std::size_t>(cfg.epochs) * per_epoch;
  std::printf("  SWAN: %d demands, %d paths, %d train / %d val / %d test matrices, "
              "%d epochs, rollout batch %d\n",
              pb.num_demands(), pb.total_paths(), per_epoch, s.inst.split.val.size(),
              s.inst.split.test.size(), cfg.epochs, cfg.rollout_batch);

  // --- timed: whole training runs ----------------------------------------------
  std::vector<double> rollouts_per_s, step_ms;
  std::vector<std::vector<double>> first_weights;
  std::uint64_t warm_step_allocs = 0;
  int runs = 0;
  const double start = now_s();
  while (runs < kMinTrainings || now_s() - start < args.seconds) {
    auto model = runs == 0 ? std::move(s.model)
                           : std::make_unique<core::TealModel>(core::TealModelConfig{},
                                                               pb.k_paths());
    StepClock clock(*model, forwards);
    const double t0 = now_s();
    const core::TrainStats st =
        core::train_coma(clock, pb, s.inst.split.train, te::Objective::kTotalFlow, cfg);
    const double wall = now_s() - t0;
    check(clock.calls() == forwards, "swan-train: unexpected number of training forwards");
    rollouts_per_s.push_back(static_cast<double>(forwards) / wall);
    const auto steps = clock.step_ms(cfg.epochs, per_epoch, cfg.rollout_batch);
    step_ms.insert(step_ms.end(), steps.begin(), steps.end());
    warm_step_allocs += st.warm_step_allocs;
    // --- output checks on every training run ---
    check(st.warm_step_allocs == 0, "swan-train: warm training steps allocated " +
                                        std::to_string(st.warm_step_allocs) + " times");
    for (const auto& w : model_weights(*model)) {
      for (double x : w) check(std::isfinite(x), "swan-train: non-finite trained parameter");
    }
    if (runs == 0) {
      first_weights = model_weights(*model);
    } else {
      check(model_weights(*model) == first_weights,
            "swan-train: training from the same seed is not bit-identical");
    }
    s.model = std::move(model);
    ++runs;
  }

  // Quality of the trained model on the held-out test matrices (deployment
  // pipeline: forward, softmax, ADMM).
  core::TealScheme scheme(pb, clone_model(*s.model), core::TealSchemeConfig{});
  std::vector<double> sat;
  te::Allocation a;
  for (int t = 0; t < s.inst.split.test.size(); ++t) {
    scheme.solve_into(pb, s.inst.split.test.at(t), a);
    sat.push_back(te::satisfied_demand_pct(pb, s.inst.split.test.at(t), a));
  }
  report.count_op(forwards * static_cast<std::size_t>(runs), 0);

  Report::describe("optimizer step", step_ms);
  std::printf("  training runs n=%d (%zu rollouts each); rollouts/s per run:", runs, forwards);
  for (double r : rollouts_per_s) std::printf(" %.2f", r);
  std::printf("\n  train_test_pct %.6f %%  setup repetitions n=%zu\n", teal::util::mean(sat),
              setup_s.size());
  if (!args.trace) {
    report.metric("setup_s", teal::util::median(setup_s), "s");
    report.metric("ops_per_s", teal::util::median(rollouts_per_s), "1/s");
    report.metric("quality_pct", teal::util::mean(sat), "%");
    return;
  }
  std::vector<double> fwd_ms, bwd_ms, eval_s;
  probe_rollout(*s.model, s.inst, args.seed, fwd_ms, bwd_ms);
  for (int r = 0; r < kEvalRepeats; ++r) {
    const double t0 = now_s();
    core::evaluate_model(*s.model, pb, s.inst.split.val, te::Objective::kTotalFlow);
    eval_s.push_back(now_s() - t0);
  }
  report_setup_spans(report, spans);
  report.metric("bench.op_ms_p25", pct(step_ms, 25), "ms");
  report.metric("bench.op_ms_p50", pct(step_ms, 50), "ms");
  report.metric("bench.op_ms_p90", pct(step_ms, 90), "ms");
  report.metric("bench.op_ms_p99", pct(step_ms, 99), "ms");
  report.metric("core.train_fwd_ms", pct(fwd_ms, 50), "ms");
  report.metric("core.train_bwd_ms", pct(bwd_ms, 50), "ms");
  report.metric("core.eval_s", pct(eval_s, 50), "s");
  report.metric("util.warm_step_allocs", static_cast<double>(warm_step_allocs), "count");
}

}  // namespace perfbench
