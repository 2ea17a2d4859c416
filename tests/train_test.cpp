// Tests for the workspace-batched training pipeline (core::TrainContext).
//
// Three load-bearing properties:
//   1. Fidelity: with one worker and the default rollout batch of 1, the
//      workspace path (forward_ws / backward_ws / per-slot accumulators)
//      trains parameters byte-identical to a reference trainer that drives
//      the allocating forward_m / backward_m interface with the same,
//      documented semantics. The references below ARE that contract, written
//      against the public Model API only.
//   2. Worker-count invariance: the `workers` knob is pure throughput —
//      byte-identical parameters for 1/2/4 workers on multiple bundled
//      topologies (the per-(rollout, demand) noise keying plus the ordered
//      sequential gradient reduction; same contract as core::ShardPlan).
//   3. Allocation-freedom: optimizer steps after the first perform zero heap
//      allocations on the workspace path (TrainStats::warm_step_allocs,
//      measured by the trainers themselves via util::alloc_hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/coma.h"
#include "core/direct_loss.h"
#include "core/model.h"
#include "core/reward.h"
#include "core/teal_scheme.h"
#include "core/train_context.h"
#include "core/variants.h"
#include "lp/path_lp.h"
#include "nn/module.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/alloc_hook.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

// Demand-capped instance of any bundled topology (same pattern as
// shard_test): every code path is full-scale, only the demand sample is
// test-sized.
Setup topo_setup(const std::string& name, int n_demands = 120, int n_intervals = 6) {
  auto g = topo::make_topology(name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  cfg.seed = 11;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.0);
  return Setup{std::move(pb), std::move(trace)};
}

core::TealModel make_model(const te::Problem& pb) {
  return core::TealModel(core::TealModelConfig{}, pb.k_paths(), /*seed=*/3);
}

void expect_params_bit_identical(core::Model& a, core::Model& b, const std::string& what) {
  auto pa = a.params();
  auto pb_ = b.params();
  ASSERT_EQ(pa.size(), pb_.size()) << what;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->w.size(), pb_[i]->w.size()) << what << " param " << i;
    EXPECT_EQ(std::memcmp(pa[i]->w.data().data(), pb_[i]->w.data().data(),
                          pa[i]->w.size() * sizeof(double)),
              0)
        << what << ": param " << i << " differs";
  }
}

// Test-local copy of the trainers' masked row softmax.
void row_softmax(const double* z, const double* mask, int k, double* out) {
  double mx = -1e300;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) mx = std::max(mx, z[c]);
  }
  double denom = 0.0;
  for (int c = 0; c < k; ++c) {
    if (mask[c] != 0.0) {
      out[c] = std::exp(z[c] - mx);
      denom += out[c];
    } else {
      out[c] = 0.0;
    }
  }
  if (denom > 0.0) {
    for (int c = 0; c < k; ++c) out[c] /= denom;
  }
}

// Reference COMA* trainer over the allocating Model API: per-matrix Adam
// steps, exploration streams keyed by core::coma_noise_seed exactly as
// documented in coma.h. train_coma with workers = 1, rollout_batch = 1 must
// match this byte for byte.
void reference_coma(core::Model& model, const te::Problem& pb, const traffic::Trace& train,
                    const core::ComaConfig& cfg) {
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  core::RewardSimulator sim(pb, te::Objective::kTotalFlow);
  auto scratch = sim.make_scratch();
  const std::vector<double> caps = pb.capacities();
  std::vector<double> zc(static_cast<std::size_t>(k)), cand(static_cast<std::size_t>(k));
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (int t = 0; t < train.size(); ++t) {
      const te::TrafficMatrix& tm = train.at(t);
      auto fwd = model.forward_m(pb, tm, &caps);
      nn::Mat z(nd, k), splits(nd, k);
      for (int d = 0; d < nd; ++d) {
        util::CounterRng rng(
            core::coma_noise_seed(cfg.seed, epoch, t, 2 * static_cast<std::uint64_t>(d)));
        for (int c = 0; c < k; ++c) {
          z.at(d, c) = fwd.logits.at(d, c) +
                       (fwd.mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
        }
        row_softmax(z.row_ptr(d), fwd.mask.row_ptr(d), k, splits.row_ptr(d));
      }
      sim.set_state(tm, caps, splits);
      std::vector<double> advantage(static_cast<std::size_t>(nd), 0.0);
      for (int d = 0; d < nd; ++d) {
        util::CounterRng rng(core::coma_noise_seed(cfg.seed, epoch, t,
                                            2 * static_cast<std::uint64_t>(d) + 1));
        const double base = sim.value_of(d, splits.row_ptr(d), scratch);
        double baseline = 0.0;
        for (int m = 0; m < cfg.mc_samples; ++m) {
          for (int c = 0; c < k; ++c) {
            zc[static_cast<std::size_t>(c)] =
                fwd.logits.at(d, c) +
                (fwd.mask.at(d, c) != 0.0 ? cfg.sigma * rng.normal() : 0.0);
          }
          row_softmax(zc.data(), fwd.mask.row_ptr(d), k, cand.data());
          baseline += sim.value_of(d, cand.data(), scratch);
        }
        baseline /= std::max(1, cfg.mc_samples);
        advantage[static_cast<std::size_t>(d)] = base - baseline;
      }
      double sq = 0.0;
      for (double a : advantage) sq += a * a;
      const double scale = 1.0 / (std::sqrt(sq / std::max(1, nd)) + cfg.adv_norm_eps);
      nn::Mat grad_logits(nd, k);
      const double inv_var = 1.0 / (cfg.sigma * cfg.sigma);
      for (int d = 0; d < nd; ++d) {
        const double a = advantage[static_cast<std::size_t>(d)] * scale;
        for (int c = 0; c < k; ++c) {
          if (fwd.mask.at(d, c) != 0.0) {
            grad_logits.at(d, c) = -a * (z.at(d, c) - fwd.logits.at(d, c)) * inv_var;
          }
        }
      }
      adam.zero_grad();
      model.backward_m(pb, fwd, grad_logits);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
    }
  }
}

// Reference direct-loss trainer over the allocating Model API (the seed
// semantics: per-matrix steps, surrogate gradient through the softmax).
void reference_direct_loss(core::Model& model, const te::Problem& pb,
                           const traffic::Trace& train, const core::DirectLossConfig& cfg) {
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  const std::vector<double> caps = pb.capacities();
  std::vector<double> weight(static_cast<std::size_t>(pb.total_paths()), 1.0);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (int t = 0; t < train.size(); ++t) {
      const te::TrafficMatrix& tm = train.at(t);
      auto fwd = model.forward_m(pb, tm, &caps);
      nn::Mat splits = core::splits_from_logits(fwd.logits, fwd.mask);
      te::Allocation a = core::allocation_from_splits(pb, splits);
      auto load = te::edge_loads(pb, tm, a);
      std::vector<char> violated(load.size(), 0);
      for (std::size_t e = 0; e < load.size(); ++e) {
        violated[e] = load[e] > caps[e] ? 1 : 0;
      }
      nn::Mat grad_splits(nd, k);
      for (int d = 0; d < nd; ++d) {
        const double vol = tm.volume[static_cast<std::size_t>(d)];
        int slot = 0;
        for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k; ++p, ++slot) {
          int n_viol = 0;
          for (topo::EdgeId e : pb.path_edges(p)) {
            n_viol += violated[static_cast<std::size_t>(e)];
          }
          grad_splits.at(d, slot) =
              -vol * (weight[static_cast<std::size_t>(p)] - static_cast<double>(n_viol));
        }
      }
      nn::Mat grad_logits;
      nn::softmax_rows_backward(splits, grad_splits, grad_logits);
      adam.zero_grad();
      model.backward_m(pb, fwd, grad_logits);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
    }
  }
}

TEST(TrainWorkspace, ComaMatchesReferenceSingleWorker) {
  auto s = topo_setup("B4");
  auto ws_model = make_model(s.pb);
  auto ref_model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.workers = 1;
  cfg.rollout_batch = 1;
  core::train_coma(ws_model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  reference_coma(ref_model, s.pb, s.trace, cfg);
  expect_params_bit_identical(ws_model, ref_model, "coma ws-vs-reference");
}

TEST(TrainWorkspace, DirectLossMatchesReferenceSingleWorker) {
  auto s = topo_setup("B4");
  auto ws_model = make_model(s.pb);
  auto ref_model = make_model(s.pb);
  core::DirectLossConfig cfg;
  cfg.epochs = 2;
  cfg.workers = 1;
  cfg.rollout_batch = 1;
  core::train_direct_loss(ws_model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  reference_direct_loss(ref_model, s.pb, s.trace, cfg);
  expect_params_bit_identical(ws_model, ref_model, "direct-loss ws-vs-reference");
}

// The worker knob must be pure throughput: byte-identical trained parameters
// for every worker count, on multiple bundled topologies, for both trainers.
TEST(TrainWorkspace, ComaWorkerCountInvariance) {
  for (const std::string topo : {"B4", "SWAN"}) {
    auto s = topo_setup(topo);
    auto baseline = make_model(s.pb);
    core::ComaConfig cfg;
    cfg.epochs = 2;
    cfg.rollout_batch = 4;
    cfg.workers = 1;
    core::train_coma(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    for (int workers : {2, 4}) {
      auto model = make_model(s.pb);
      cfg.workers = workers;
      core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(model, baseline,
                                  topo + " coma workers=" + std::to_string(workers));
    }
  }
}

TEST(TrainWorkspace, DirectLossWorkerCountInvariance) {
  for (const std::string topo : {"B4", "SWAN"}) {
    auto s = topo_setup(topo);
    auto baseline = make_model(s.pb);
    core::DirectLossConfig cfg;
    cfg.epochs = 2;
    cfg.rollout_batch = 4;
    cfg.workers = 1;
    core::train_direct_loss(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    for (int workers : {2, 4}) {
      auto model = make_model(s.pb);
      cfg.workers = workers;
      core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(model, baseline,
                                  topo + " direct workers=" + std::to_string(workers));
    }
  }
}

// Rollout batching changes step granularity, never rollout math: the auto
// worker count (0) must match the explicit sequential run too.
TEST(TrainWorkspace, AutoWorkersMatchSequential) {
  auto s = topo_setup("B4");
  auto baseline = make_model(s.pb);
  auto model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 1;
  cfg.rollout_batch = 3;
  cfg.workers = 1;
  core::train_coma(baseline, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  cfg.workers = 0;  // auto
  core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  expect_params_bit_identical(model, baseline, "coma auto workers");
}

// Warm optimizer steps on the workspace path are allocation-free — the
// trainers measure it themselves (steps after the first, validation and
// epoch accounting excluded).
TEST(TrainWorkspace, ComaWarmStepsAllocationFree) {
  auto s = topo_setup("B4");
  auto model = make_model(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.rollout_batch = 2;
  core::TrainStats stats =
      core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(stats.warm_step_allocs, 0u)
      << "warm COMA* training steps must not allocate";
}

TEST(TrainWorkspace, DirectLossWarmStepsAllocationFree) {
  auto s = topo_setup("B4");
  auto model = make_model(s.pb);
  core::DirectLossConfig cfg;
  cfg.epochs = 2;
  cfg.rollout_batch = 2;
  core::DirectLossStats stats =
      core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(stats.warm_step_allocs, 0u)
      << "warm direct-loss training steps must not allocate";
}

// Cold-start contract: TrainContext::prepare bump-allocates the slot array,
// every per-slot gradient accumulator and the backward scratch out of the
// context's own arenas — O(1) heap allocations for the spin-up, and again
// for a re-prepare (which re-bumps the retained chunks).
TEST(TrainWorkspace, ContextPrepareIsO1Allocations) {
  auto s = topo_setup("B4", 60, 4);
  auto model = make_model(s.pb);
  core::TrainContext ctx;
  {
    util::AllocCounter allocs;
    ctx.prepare(model, s.pb, /*rollout_batch=*/4, /*workers=*/2);
    EXPECT_LE(allocs.count(), 5u)
        << "TrainContext spin-up must stay O(1) heap allocations";
  }
  EXPECT_EQ(ctx.rollout_batch(), 4);
  {
    util::AllocCounter allocs;
    ctx.prepare(model, s.pb, /*rollout_batch=*/4, /*workers=*/2);
    EXPECT_LE(allocs.count(), 5u)
        << "re-prepare must re-bump retained chunks, not re-malloc";
  }
}

// The three Figure 14 ablation variants, freshly initialised from one seed.
// The global policy's giant layer is kept narrow so the tests stay fast.
std::vector<std::unique_ptr<core::Model>> make_variants(const te::Problem& pb) {
  core::GlobalPolicyConfig gcfg;
  gcfg.hidden_dim = 16;
  std::vector<std::unique_ptr<core::Model>> out;
  out.push_back(std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, pb, 3));
  out.push_back(std::make_unique<core::NaiveGnnModel>(core::NaiveGnnConfig{}, pb, 3));
  out.push_back(std::make_unique<core::GlobalPolicyModel>(gcfg, pb, 3));
  return out;
}
const char* const kVariantNames[] = {"naive DNN", "naive GNN", "global policy"};

// The ablation variants train through the same per-rollout accumulators as
// TealModel, so the worker knob is pure throughput for them too.
TEST(TrainWorkspace, VariantsWorkerCountInvariance) {
  auto s = topo_setup("B4");
  for (std::size_t v = 0; v < std::size(kVariantNames); ++v) {
    const std::string name = kVariantNames[v];
    {
      auto baseline = make_variants(s.pb);
      auto model = make_variants(s.pb);
      core::ComaConfig cfg;
      cfg.epochs = 2;
      cfg.rollout_batch = 4;
      cfg.workers = 1;
      core::train_coma(*baseline[v], s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      cfg.workers = 4;
      core::train_coma(*model[v], s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(*model[v], *baseline[v], name + " coma workers=4");
    }
    {
      auto baseline = make_variants(s.pb);
      auto model = make_variants(s.pb);
      core::DirectLossConfig cfg;
      cfg.epochs = 2;
      cfg.rollout_batch = 4;
      cfg.workers = 1;
      core::train_direct_loss(*baseline[v], s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      cfg.workers = 4;
      core::train_direct_loss(*model[v], s.pb, s.trace, te::Objective::kTotalFlow, cfg);
      expect_params_bit_identical(*model[v], *baseline[v], name + " direct workers=4");
    }
  }
}

// At one rollout per step the variants' training equals the per-matrix
// reference over the Model conveniences (forward_m / backward_m) byte for
// byte, exactly as TealModel's does.
TEST(TrainWorkspace, VariantsMatchReferenceSingleWorker) {
  auto s = topo_setup("B4");
  auto trained = make_variants(s.pb);
  auto reference = make_variants(s.pb);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.workers = 1;
  cfg.rollout_batch = 1;
  for (std::size_t v = 0; v < std::size(kVariantNames); ++v) {
    core::train_coma(*trained[v], s.pb, s.trace, te::Objective::kTotalFlow, cfg);
    reference_coma(*reference[v], s.pb, s.trace, cfg);
    expect_params_bit_identical(*trained[v], *reference[v],
                                std::string(kVariantNames[v]) + " coma ws-vs-reference");
  }
}

// A damaged model cache must not leak into training: train_or_load_model
// starts from the seeded init exactly as if no cache existed.
TEST(TrainWorkspace, TruncatedCacheTrainsLikeNoCache) {
  auto s = topo_setup("B4", 20, 2);
  core::TealTrainOptions opts;
  opts.coma.epochs = 1;
  auto fresh = make_model(s.pb);
  core::train_or_load_model(fresh, s.pb, s.trace, te::Objective::kTotalFlow, opts);

  // Cache of a differently seeded model, truncated by 8 bytes.
  const auto path =
      (std::filesystem::temp_directory_path() / "teal_truncated_train_cache.bin").string();
  core::TealModel(core::TealModelConfig{}, s.pb.k_paths(), /*seed=*/99).save(path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);
  auto cached = make_model(s.pb);
  opts.cache_path = path;
  core::train_or_load_model(cached, s.pb, s.trace, te::Objective::kTotalFlow, opts);
  std::filesystem::remove(path);
  expect_params_bit_identical(fresh, cached, "truncated cache vs no cache");
}

// GradAccum reduction: Param::g after reduce_into equals direct accumulation
// (zero + one set), and per-set refs address the right shapes.
TEST(TrainWorkspace, GradAccumReduceMatchesDirect) {
  util::Rng rng(9);
  nn::Linear lin(5, 3, rng);
  auto params = lin.params();
  nn::GradAccum acc;
  acc.prepare(params);
  auto refs = acc.refs();
  ASSERT_EQ(refs.size(), params.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(refs[i]->same_shape(params[i]->g));
    for (auto& v : refs[i]->data()) v = rng.normal();
  }
  for (auto* p : params) p->zero_grad();
  acc.reduce_into(params);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(std::memcmp(params[i]->g.data().data(), refs[i]->data().data(),
                          refs[i]->size() * sizeof(double)),
              0);
  }
}

// Validation fans its matrices over the pool (one ModelForward per chunk)
// and sums the per-matrix scores in matrix order: with more matrices than
// pool threads it must equal a sequential loop bit for bit.
TEST(TrainValidation, EvaluateModelMatchesSequentialSum) {
  const int n_val = 2 * static_cast<int>(util::ThreadPool::global().size()) + 3;
  auto s = topo_setup("B4", 120, n_val);
  auto model = make_model(s.pb);
  const std::vector<double> caps = s.pb.capacities();
  for (te::Objective obj : {te::Objective::kTotalFlow, te::Objective::kMinMaxLinkUtil}) {
    double total = 0.0;
    for (int t = 0; t < s.trace.size(); ++t) {
      const auto& tm = s.trace.at(t);
      auto fwd = model.forward_m(s.pb, tm, &caps);
      auto alloc =
          core::allocation_from_splits(s.pb, core::splits_from_logits(fwd.logits, fwd.mask));
      total += te::objective_score(s.pb, tm, alloc, obj, &caps) / std::max(1e-9, tm.total());
    }
    const double want = total / s.trace.size();
    const double got = core::evaluate_model(model, s.pb, s.trace, obj);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "objective " << static_cast<int>(obj) << ": " << got << " vs " << want;
  }
}

// Forwards every call to a TealModel and counts the two forward_ws entries:
// the sharded overload is the trainer's rollout forward, the 4-argument one
// is what validation may use.
class ForwardCounter final : public core::Model {
 public:
  explicit ForwardCounter(core::Model& inner) : inner_(inner) {}
  core::ModelForward forward_m(const te::Problem& pb, const te::TrafficMatrix& tm,
                               const std::vector<double>* caps) const override {
    return inner_.forward_m(pb, tm, caps);
  }
  void backward_m(const te::Problem& pb, const core::ModelForward& fwd,
                  const nn::Mat& grad_logits) override {
    inner_.backward_m(pb, fwd, grad_logits);
  }
  std::vector<nn::Param*> params() override { return inner_.params(); }
  int k_paths() const override { return inner_.k_paths(); }
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* caps, core::ModelForward& fwd) const override {
    plain_.fetch_add(1, std::memory_order_relaxed);
    inner_.forward_ws(pb, tm, caps, fwd);
  }
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* caps, core::ModelForward& fwd,
                  const core::ShardPlan& shards, core::ShardStat* stats) const override {
    sharded_.fetch_add(1, std::memory_order_relaxed);
    inner_.forward_ws(pb, tm, caps, fwd, shards, stats);
  }
  bool supports_train_ws() const override { return inner_.supports_train_ws(); }
  void backward_ws(const te::Problem& pb, const core::ModelForward& fwd,
                   const nn::Mat& grad_logits, core::TrainBackward& bws,
                   nn::GradRefs grads) const override {
    inner_.backward_ws(pb, fwd, grad_logits, bws, grads);
  }

  long sharded() const { return sharded_.load(); }
  long plain() const { return plain_.load(); }

 private:
  core::Model& inner_;
  mutable std::atomic<long> sharded_{0};
  mutable std::atomic<long> plain_{0};
};

// A validated training run makes exactly epochs x train.size() sharded
// forwards: validation never uses that overload.
TEST(TrainValidation, ValidatedComaCountsOnlyRolloutForwards) {
  const int n_val = 2 * static_cast<int>(util::ThreadPool::global().size()) + 1;
  auto s = topo_setup("B4", 120, 6 + n_val);
  traffic::Trace train, val;
  train.matrices.assign(s.trace.matrices.begin(), s.trace.matrices.begin() + 6);
  val.matrices.assign(s.trace.matrices.begin() + 6, s.trace.matrices.end());
  core::ComaConfig cfg;
  cfg.epochs = 3;
  cfg.rollout_batch = 2;
  cfg.validation = &val;

  auto model = make_model(s.pb);
  ForwardCounter counter(model);
  core::TrainStats stats =
      core::train_coma(counter, s.pb, train, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(counter.sharded(), static_cast<long>(cfg.epochs) * train.size());
  EXPECT_EQ(counter.plain(), static_cast<long>(cfg.epochs) * val.size());
  EXPECT_EQ(stats.epoch_validation.size(), static_cast<std::size_t>(cfg.epochs));
}

}  // namespace
}  // namespace teal
