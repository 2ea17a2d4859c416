// model.h — Teal's end-to-end "model": FlowGNN + shared policy network.
//
// This is the object that gets trained (per WAN topology and per TE
// objective, §4) and later queried at deployment time. A forward produces a
// (D, k) matrix of policy logits plus the path-validity mask; turning logits
// into split ratios (softmax, or Gaussian exploration during training) is the
// trainer's/scheme's business.
//
// Layout: every module (FlowGnn, PolicyNet, TealModel) has one f64 forward
// (the demand-sharded workspace forward), one narrowed forward keyed by
// te::Precision (after prepare(p) snapshots the weights), and one backward
// (backward_ws, which accumulates into caller-chosen gradient targets — the
// per-rollout GradAccums of batched training, or Param::g itself behind the
// Model::backward_m seam).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/flow_gnn.h"
#include "core/policy_net.h"

namespace teal::core {

// Type-erased forward result shared by TealModel and the Figure 14 ablation
// variants: per-demand policy logits, the path-validity mask, and an opaque
// cache the owning model needs for its hand-written backward pass.
//
// A ModelForward is also the unit of workspace reuse: forward_ws() re-runs a
// model into the same object, and `owner` records which model produced the
// cache so a stale cache from a different model is never reinterpreted.
struct ModelForward {
  nn::Mat logits;  // (D, k)
  nn::Mat mask;    // (D, k)
  std::shared_ptr<void> cache;
  const void* owner = nullptr;
};

// Opaque per-worker backward scratch for the workspace training path, type-
// erased the same way ModelForward is: the owning model allocates its typed
// grad temporaries on first use and reuses them afterwards, so warm training
// steps run the whole backward without heap allocation. Every value inside is
// fully overwritten per call — sharing one TrainBackward across sequential
// rollouts on the same worker is safe; concurrent rollouts need distinct
// objects.
struct TrainBackward {
  std::shared_ptr<void> cache;
  const void* owner = nullptr;
};

// Interface the trainers (COMA*, direct loss) and te::Scheme wrappers operate
// on, so the same training loop drives Teal and every ablation variant
// (§5.7).
class Model {
 public:
  virtual ~Model() = default;

  virtual ModelForward forward_m(const te::Problem& pb, const te::TrafficMatrix& tm,
                                 const std::vector<double>* capacities = nullptr) const = 0;
  virtual void backward_m(const te::Problem& pb, const ModelForward& fwd,
                          const nn::Mat& grad_logits) = 0;
  virtual std::vector<nn::Param*> params() = 0;
  virtual int k_paths() const = 0;

  // Workspace-based forward: re-runs the model into `fwd`, reusing its cache
  // when this model produced it (TealModel makes repeated calls allocation-
  // free). Must be safe to call concurrently with distinct `fwd` objects.
  // Default falls back to the allocating forward_m.
  virtual void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                          const std::vector<double>* capacities, ModelForward& fwd) const {
    fwd = forward_m(pb, tm, capacities);
  }

  // Demand-sharded workspace forward: per-demand stages fan out over
  // `shards`, writing disjoint rows of `fwd`. Results must be bit-identical
  // for every shard plan. Default ignores the plan — the Figure 14 ablation
  // variants have no per-demand decomposition to shard.
  virtual void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                          const std::vector<double>* capacities, ModelForward& fwd,
                          const ShardPlan& /*shards*/, ShardStat* /*stats*/ = nullptr) const {
    forward_ws(pb, tm, capacities, fwd);
  }

  // Workspace training seam. supports_train_ws() gates the batched trainer
  // pipeline: when true, backward_ws() must run the same arithmetic as
  // backward_m() but (a) keep its grad temporaries in `bws` so warm steps
  // allocate nothing, and (b) accumulate parameter grads into `grads`
  // (params() order) instead of Param::g — const, so rollout workers with
  // distinct (fwd, bws, grads) triples may run concurrently over one shared
  // model. Models without the seam (the Figure 14 ablation variants) train
  // through the sequential backward_m fallback path instead.
  virtual bool supports_train_ws() const { return false; }
  virtual void backward_ws(const te::Problem& /*pb*/, const ModelForward& /*fwd*/,
                           const nn::Mat& /*grad_logits*/, TrainBackward& /*bws*/,
                           nn::GradRefs /*grads*/) const {
    throw std::logic_error(
        "Model::backward_ws: this model has no workspace training path "
        "(supports_train_ws() is false)");
  }

  // Narrowed inference forward (the paper's fp32 deployment precision, plus
  // bf16 weight storage): runs the NN arithmetic in float through weight
  // snapshots, widening logits/mask back to double in `fwd` so everything
  // downstream (masked softmax, ADMM) is unchanged. prepare(p) snapshots the
  // current parameters at precision p; it must run before the first forward
  // at p and after any further training (not thread-safe against concurrent
  // forwards). A narrowed cache never back-propagates. Defaults: only f64 is
  // supported (the ablation variants), so te::Scheme's precision knob ignores
  // the narrowed settings and never calls forward_narrowed.
  virtual bool supports_precision(te::Precision p) const { return p == te::Precision::f64; }
  virtual void prepare(te::Precision /*p*/) {}
  virtual void forward_narrowed(const te::Problem& /*pb*/, const te::TrafficMatrix& /*tm*/,
                                const std::vector<double>* /*capacities*/,
                                ModelForward& /*fwd*/, te::Precision /*p*/,
                                const ShardPlan& /*shards*/,
                                ShardStat* /*stats*/ = nullptr) const {
    throw std::logic_error(
        "Model::forward_narrowed: this model has no narrowed forward "
        "(supports_precision() is false for f32/bf16)");
  }

  void save(const std::string& path) { nn::save_params(path, params()); }
  bool load(const std::string& path) { return nn::load_params(path, params()); }
};

struct TealModelConfig {
  FlowGnnConfig gnn;
  PolicyConfig policy;
};

class TealModel : public Model {
 public:
  TealModel(const TealModelConfig& cfg, int k_paths, std::uint64_t seed = 42);

  // Typed f64 forward cache: the only cache backward_ws() accepts.
  struct Forward {
    FlowGnn::Forward gnn;
    PolicyNet::Forward policy;  // policy.logits holds the (D, k) logits
    nn::Mat mask;               // (D, k) path validity
  };

  // Narrowed inference cache (the float mirror a SolveWorkspace grows when
  // the solve runs at Precision::f32 *or* bf16 — bf16 narrows only the stored
  // weights, so its activations live in the same float workspace).
  struct ForwardF {
    FlowGnn::ForwardF gnn;
    PolicyNet::ForwardF policy;
  };

  // Typed cache behind the TrainBackward seam: the policy/GNN backward
  // workspaces plus the two inter-module grad matrices.
  struct BackwardCache {
    PolicyNet::BackwardWs policy;
    FlowGnn::BackwardWs gnn;
    nn::Mat grad_input;  // (D, k*dim) d(loss)/d(policy input)
    nn::Mat grad_paths;  // (N_p, dim) d(loss)/d(final path embeddings)
  };

  // The one f64 forward, into a caller-owned (reused) Forward. The FlowGNN
  // demand passes, the policy-input assembly and the policy forward all fan
  // out over `shards`; results are bit-identical for every plan.
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, Forward& fwd,
               const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // Model interface. forward_m and the 4-argument forward_ws run forward()
  // under the auto shard plan; backward_m runs backward_ws() with the
  // parameters' own Param::g as the gradient targets.
  ModelForward forward_m(const te::Problem& pb, const te::TrafficMatrix& tm,
                         const std::vector<double>* capacities = nullptr) const override;
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd) const override;
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd,
                  const ShardPlan& shards, ShardStat* stats = nullptr) const override;
  bool supports_precision(te::Precision /*p*/) const override { return true; }
  void prepare(te::Precision p) override;
  // Throws std::invalid_argument for f64 (use forward_ws) and
  // std::logic_error when prepare(p) has not run.
  void forward_narrowed(const te::Problem& pb, const te::TrafficMatrix& tm,
                        const std::vector<double>* capacities, ModelForward& fwd,
                        te::Precision p, const ShardPlan& shards,
                        ShardStat* stats = nullptr) const override;
  void backward_m(const te::Problem& pb, const ModelForward& fwd,
                  const nn::Mat& grad_logits) override;
  bool supports_train_ws() const override { return true; }
  void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                   const nn::Mat& grad_logits, TrainBackward& bws,
                   nn::GradRefs grads) const override;
  std::vector<nn::Param*> params() override;

  int k_paths() const override { return k_; }
  const TealModelConfig& config() const { return cfg_; }

 private:
  TealModelConfig cfg_;
  int k_;
  util::Rng init_rng_;  // declared before the networks: it seeds their init
  FlowGnn gnn_;
  PolicyNet policy_;
  // ModelForward::owner tag for the narrowed caches: an f32 or bf16 cache
  // holds a ForwardF, not a Forward, so it must never be reinterpreted by
  // the f64 path (and vice versa). f32 and bf16 share the tag deliberately —
  // their caches are the same type and every activation is fully rewritten
  // per forward, so switching between them reuses the buffers. Tagging with
  // this member's address instead of `this` keeps the narrow/f64 cache kinds
  // distinct per model instance.
  char narrow_owner_tag_ = 0;
};

// Converts logits + mask into per-demand split ratios via masked softmax.
// Rows with no valid path stay all-zero.
nn::Mat splits_from_logits(const nn::Mat& logits, const nn::Mat& mask);

// Writes a (D, k) split matrix into a flat Allocation on the problem's global
// path id space.
te::Allocation allocation_from_splits(const te::Problem& pb, const nn::Mat& splits);

// Same, into a caller-owned Allocation (capacity reused on warm calls).
void allocation_from_splits_into(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a);

// Row-range variant for sharded callers: writes the split entries of demands
// [d_begin, d_end) only; `a.split` must be pre-sized to total_paths().
void allocation_from_splits_rows(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a, int d_begin, int d_end);

}  // namespace teal::core
