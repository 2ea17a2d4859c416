#include "core/model.h"

namespace teal::core {

TealModel::TealModel(const TealModelConfig& cfg, int k_paths, std::uint64_t seed)
    : cfg_(cfg), k_(k_paths), init_rng_(seed),
      gnn_(cfg.gnn, k_paths, init_rng_),
      policy_(cfg.policy, k_paths * effective_final_dim(cfg.gnn), k_paths, init_rng_) {}

void TealModel::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                        const std::vector<double>* capacities, Forward& fwd,
                        const ShardPlan& shards, ShardStat* stats) const {
  gnn_.forward(pb, tm, capacities, fwd.gnn, shards, stats);
  // Size the policy buffers on this thread, then run policy-input assembly
  // and the policy network as one fused per-demand pass.
  const int nd = pb.num_demands();
  fwd.policy.input.resize(nd, k_ * fwd.gnn.final_paths.cols());
  fwd.mask.resize(nd, k_);
  policy_.prepare_forward(fwd.policy);
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    build_policy_input_rows(pb, fwd.gnn.final_paths, k_, fwd.policy.input, fwd.mask, d0, d1);
    policy_.forward_rows(fwd.policy, d0, d1);
  });
}

void TealModel::prepare(te::Precision p) {
  gnn_.prepare(p);
  policy_.prepare(p);
}

void TealModel::forward_narrowed(const te::Problem& pb, const te::TrafficMatrix& tm,
                                 const std::vector<double>* capacities, ModelForward& out,
                                 te::Precision p, const ShardPlan& shards,
                                 ShardStat* stats) const {
  // Same cache-reuse contract as forward_ws, under the narrowed owner tag (a
  // narrowed cache is a ForwardF; the f64 path must never reinterpret it).
  // f32 and bf16 share the cache: same type, every activation fully
  // rewritten per forward.
  if (out.owner != &narrow_owner_tag_ || out.cache == nullptr || out.cache.use_count() != 1) {
    out.cache = std::make_shared<ForwardF>();
    out.owner = &narrow_owner_tag_;
  }
  auto* typed = static_cast<ForwardF*>(out.cache.get());
  gnn_.forward(pb, tm, capacities, typed->gnn, p, shards, stats);
  // Fused per-demand tail: input assembly (float), policy forward (float),
  // and the logit widening back to the caller's f64 matrices — each shard
  // touches only its own demand rows, so the fan-out stays race-free.
  const int nd = pb.num_demands();
  typed->policy.input.resize(nd, k_ * typed->gnn.final_paths.cols());
  out.mask.resize(nd, k_);
  policy_.prepare_forward(typed->policy, p);
  out.logits.resize(nd, k_);
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    build_policy_input_rows(pb, typed->gnn.final_paths, k_, typed->policy.input, out.mask,
                            d0, d1);
    policy_.forward_rows(typed->policy, p, d0, d1);
    for (int d = d0; d < d1; ++d) {
      const float* lr = typed->policy.logits.row_ptr(d);
      double* outr = out.logits.row_ptr(d);
      for (int c = 0; c < k_; ++c) outr[c] = static_cast<double>(lr[c]);
    }
  });
}

std::vector<nn::Param*> TealModel::params() {
  std::vector<nn::Param*> ps;
  ps.reserve(gnn_.num_params() + policy_.num_params());
  gnn_.append_params(ps);
  policy_.append_params(ps);
  return ps;
}

ModelForward TealModel::forward_m(const te::Problem& pb, const te::TrafficMatrix& tm,
                                  const std::vector<double>* capacities) const {
  ModelForward out;
  forward_ws(pb, tm, capacities, out);
  return out;
}

void TealModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ModelForward& out) const {
  const int nd = pb.num_demands();
  forward_ws(pb, tm, capacities, out,
             ShardPlan::make(nd, auto_shard_count(nd, pb.total_paths())));
}

void TealModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ModelForward& out,
                           const ShardPlan& shards, ShardStat* stats) const {
  // A shared cache (use_count > 1) must not be overwritten in place — another
  // ModelForward may still need it for backward. Start fresh instead.
  if (out.owner != this || out.cache == nullptr || out.cache.use_count() != 1) {
    out.cache = std::make_shared<Forward>();
    out.owner = this;
  }
  auto* typed = static_cast<Forward*>(out.cache.get());
  forward(pb, tm, capacities, *typed, shards, stats);
  out.logits = typed->policy.logits;  // capacity-reusing copies
  out.mask = typed->mask;
}

void TealModel::backward_ws(const te::Problem& pb, const ModelForward& fwd,
                            const nn::Mat& grad_logits, TrainBackward& bws,
                            nn::GradRefs grads) const {
  // Only an f64 cache produced by this model can back-propagate: a narrowed
  // cache (owner == &narrow_owner_tag_) has no double activations, and a
  // cache from another model would be reinterpreted garbage.
  if (fwd.owner != this || fwd.cache == nullptr) {
    throw std::logic_error(
        "TealModel::backward_ws: forward cache was not produced by this model's "
        "f64 forward path (narrowed f32/bf16 inference caches cannot back-propagate)");
  }
  if (grads.size() != gnn_.num_params() + policy_.num_params()) {
    throw std::invalid_argument("TealModel::backward_ws: grads size mismatch");
  }
  if (bws.owner != this || bws.cache == nullptr || bws.cache.use_count() != 1) {
    bws.cache = std::make_shared<BackwardCache>();
    bws.owner = this;
  }
  auto* ws = static_cast<BackwardCache*>(bws.cache.get());
  const auto* typed = static_cast<const Forward*>(fwd.cache.get());
  policy_.backward_ws(typed->policy, grad_logits, ws->policy, ws->grad_input,
                      grads.subspan(gnn_.num_params()));
  ws->grad_paths.resize(pb.total_paths(), gnn_.final_dim());
  ws->grad_paths.zero();  // scatter accumulates per path slot
  scatter_policy_input_grad(pb, ws->grad_input, k_, gnn_.final_dim(), ws->grad_paths);
  gnn_.backward_ws(pb, typed->gnn, ws->grad_paths, ws->gnn,
                   grads.subspan(0, gnn_.num_params()));
}

void TealModel::backward_m(const te::Problem& pb, const ModelForward& fwd,
                           const nn::Mat& grad_logits) {
  TrainBackward bws;
  const std::vector<nn::Mat*> grads = nn::grad_targets(params());
  backward_ws(pb, fwd, grad_logits, bws, grads);
}

nn::Mat splits_from_logits(const nn::Mat& logits, const nn::Mat& mask) {
  nn::Mat splits;
  nn::softmax_rows(logits, mask, splits);
  return splits;
}

te::Allocation allocation_from_splits(const te::Problem& pb, const nn::Mat& splits) {
  te::Allocation a;
  allocation_from_splits_into(pb, splits, a);
  return a;
}

void allocation_from_splits_into(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a) {
  a.split.resize(static_cast<std::size_t>(pb.total_paths()));
  allocation_from_splits_rows(pb, splits, a, 0, pb.num_demands());
}

void allocation_from_splits_rows(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a, int d_begin, int d_end) {
  for (int d = d_begin; d < d_end; ++d) {
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p, ++slot) {
      a.split[static_cast<std::size_t>(p)] =
          slot < splits.cols() ? splits.at(d, slot) : 0.0;
    }
  }
}

}  // namespace teal::core
