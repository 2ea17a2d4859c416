#include "core/variants.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace teal::core {

namespace {

// Shared helper: writes the (D, k) validity mask.
void path_mask_into(const te::Problem& pb, int k, nn::Mat& mask) {
  mask.resize(pb.num_demands(), k);
  mask.zero();
  for (int d = 0; d < pb.num_demands(); ++d) {
    for (int slot = 0; slot < pb.num_paths(d) && slot < k; ++slot) {
      mask.at(d, slot) = 1.0;
    }
  }
}

double mean_capacity(const te::Problem& pb, const std::vector<double>* caps) {
  const int ne = pb.graph().num_edges();
  double m = 1e-9;
  for (int e = 0; e < ne; ++e) {
    m += caps ? (*caps)[static_cast<std::size_t>(e)] : pb.graph().edge(e).capacity;
  }
  return m / std::max(1, ne);
}

// The typed forward cache a variant's backward_ws reads, after the checks
// every backward_ws makes (Model::backward_ws).
template <typename C>
const C& checked_forward(const ModelForward& fwd, const void* self, nn::GradRefs grads,
                         std::size_t n_params, const char* who) {
  if (fwd.owner != self || fwd.cache == nullptr) {
    throw std::logic_error(std::string(who) +
                           ": forward cache was not produced by this model's forward");
  }
  if (grads.size() != n_params) {
    throw std::invalid_argument(std::string(who) + ": grads size mismatch");
  }
  return *static_cast<const C*>(fwd.cache.get());
}

}  // namespace

// ---------------------------------------------------------------- NaiveDnn

struct NaiveDnnModel::Cache {
  nn::Mat input;                 // (1, D)
  std::vector<nn::Mat> pre, act; // per layer
};

struct NaiveDnnModel::BackwardCache {
  nn::Mat g_out, g_in;  // running (1, width) grads of the current layer
};

NaiveDnnModel::NaiveDnnModel(const NaiveDnnConfig& cfg, const te::Problem& pb,
                             std::uint64_t seed)
    : cfg_(cfg), k_(pb.k_paths()), n_demands_(pb.num_demands()) {
  util::Rng rng(seed);
  int in = n_demands_;
  for (int l = 0; l < cfg.n_layers - 1; ++l) {
    layers_.emplace_back(in, cfg.hidden_dim, rng);
    in = cfg.hidden_dim;
  }
  layers_.emplace_back(in, n_demands_ * k_, rng);
}

void NaiveDnnModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                               const std::vector<double>* capacities, ModelForward& out,
                               const ShardPlan& /*shards*/, ShardStat* /*stats*/) const {
  if (pb.num_demands() != n_demands_) {
    throw std::invalid_argument("NaiveDnnModel: problem mismatch");
  }
  Cache& cache = owned_cache<Cache>(out, this);
  cache.input.resize(1, n_demands_);
  const double scale = mean_capacity(pb, capacities);
  for (int d = 0; d < n_demands_; ++d) {
    cache.input.at(0, d) = tm.volume[static_cast<std::size_t>(d)] / scale;
  }
  const nn::Mat* cur = &cache.input;
  cache.pre.resize(layers_.size());
  cache.act.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward(*cur, cache.pre[l]);
    if (l + 1 < layers_.size()) {
      nn::leaky_relu_forward(cache.pre[l], cache.act[l], cfg_.leaky_alpha);
      cur = &cache.act[l];
    }
  }
  path_mask_into(pb, k_, out.mask);
  out.logits.resize(n_demands_, k_);
  const nn::Mat& flat = cache.pre.back();  // (1, D*k)
  for (int d = 0; d < n_demands_; ++d) {
    for (int c = 0; c < k_; ++c) out.logits.at(d, c) = flat.at(0, d * k_ + c);
  }
}

void NaiveDnnModel::backward_ws(const te::Problem& /*pb*/, const ModelForward& fwd,
                                const nn::Mat& grad_logits, TrainBackward& bws,
                                nn::GradRefs grads) const {
  const Cache& cache = checked_forward<Cache>(fwd, this, grads, 2 * layers_.size(),
                                              "NaiveDnnModel::backward_ws");
  BackwardCache& ws = owned_cache<BackwardCache>(bws, this);
  ws.g_out.resize(1, n_demands_ * k_);
  for (int d = 0; d < n_demands_; ++d) {
    for (int c = 0; c < k_; ++c) ws.g_out.at(0, d * k_ + c) = grad_logits.at(d, c);
  }
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const nn::Mat& input = l == 0 ? cache.input : cache.act[l - 1];
    layers_[l].backward_acc(input, ws.g_out, ws.g_in, *grads[2 * l], *grads[2 * l + 1]);
    if (l > 0) nn::leaky_relu_backward(cache.pre[l - 1], ws.g_in, ws.g_out, cfg_.leaky_alpha);
  }
}

std::vector<nn::Param*> NaiveDnnModel::params() {
  std::vector<nn::Param*> ps;
  for (auto& l : layers_) {
    for (auto* p : l.params()) ps.push_back(p);
  }
  return ps;
}

// ---------------------------------------------------------------- NaiveGnn

struct NaiveGnnModel::Cache {
  nn::Mat feat;                   // (N, 3) raw node features
  nn::Mat proj_pre, proj_act;     // input projection
  std::vector<nn::Mat> cat, pre, act;  // per MP layer
  nn::Mat pol_in, pol_pre, pol_act;    // policy head
};

struct NaiveGnnModel::BackwardCache {
  nn::Mat g_pol_act, g_pol_pre, g_pol_in;  // policy head
  nn::Mat g_nodes, g_prev, g_pre, g_cat;   // message passing (running node grads)
  nn::Mat g_proj_pre, g_feat;              // input projection
};

NaiveGnnModel::NaiveGnnModel(const NaiveGnnConfig& cfg, const te::Problem& pb,
                             std::uint64_t seed)
    : cfg_(cfg), k_(pb.k_paths()) {
  util::Rng rng(seed);
  input_proj_ = nn::Linear(3, cfg.embed_dim, rng);
  for (int l = 0; l < cfg.n_layers; ++l) {
    layers_.emplace_back(2 * cfg.embed_dim, cfg.embed_dim, rng);
  }
  policy_hidden_ = nn::Linear(2 * cfg.embed_dim + 1, cfg.policy_hidden, rng);
  policy_out_ = nn::Linear(cfg.policy_hidden, k_, rng);
}

void NaiveGnnModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                               const std::vector<double>* capacities, ModelForward& out,
                               const ShardPlan& /*shards*/, ShardStat* /*stats*/) const {
  const int n = pb.graph().num_nodes();
  const int nd = pb.num_demands();
  Cache& cache = owned_cache<Cache>(out, this);
  const double scale = mean_capacity(pb, capacities);

  cache.feat.resize(n, 3);
  cache.feat.zero();
  for (int d = 0; d < nd; ++d) {
    double v = tm.volume[static_cast<std::size_t>(d)] / scale;
    cache.feat.at(pb.demand(d).src, 0) += v;
    cache.feat.at(pb.demand(d).dst, 1) += v;
  }
  for (topo::EdgeId e = 0; e < pb.graph().num_edges(); ++e) {
    const double cap =
        capacities ? (*capacities)[static_cast<std::size_t>(e)] : pb.graph().edge(e).capacity;
    cache.feat.at(pb.graph().edge(e).src, 2) += cap / scale;
  }

  input_proj_.forward(cache.feat, cache.proj_pre);
  nn::leaky_relu_forward(cache.proj_pre, cache.proj_act, cfg_.leaky_alpha);

  cache.cat.resize(layers_.size());
  cache.pre.resize(layers_.size());
  cache.act.resize(layers_.size());
  const nn::Mat* cur = &cache.proj_act;
  const int dim = cfg_.embed_dim;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    // [self | mean over out-neighbors]
    cache.cat[l].resize(n, 2 * dim);
    cache.cat[l].zero();
    for (int v = 0; v < n; ++v) {
      const double* self = cur->row_ptr(v);
      double* row = cache.cat[l].row_ptr(v);
      std::copy(self, self + dim, row);
      const auto& outs = pb.graph().out_edges(v);
      if (!outs.empty()) {
        for (topo::EdgeId e : outs) {
          const double* nb = cur->row_ptr(pb.graph().edge(e).dst);
          for (int c = 0; c < dim; ++c) row[dim + c] += nb[c];
        }
        for (int c = 0; c < dim; ++c) row[dim + c] /= static_cast<double>(outs.size());
      }
    }
    layers_[l].forward(cache.cat[l], cache.pre[l]);
    nn::leaky_relu_forward(cache.pre[l], cache.act[l], cfg_.leaky_alpha);
    cur = &cache.act[l];
  }

  // Policy head: [src emb | dst emb | volume] per demand.
  cache.pol_in.resize(nd, 2 * dim + 1);
  for (int d = 0; d < nd; ++d) {
    double* row = cache.pol_in.row_ptr(d);
    const double* se = cur->row_ptr(pb.demand(d).src);
    const double* de = cur->row_ptr(pb.demand(d).dst);
    std::copy(se, se + dim, row);
    std::copy(de, de + dim, row + dim);
    row[2 * dim] = tm.volume[static_cast<std::size_t>(d)] / scale;
  }
  policy_hidden_.forward(cache.pol_in, cache.pol_pre);
  nn::leaky_relu_forward(cache.pol_pre, cache.pol_act, cfg_.leaky_alpha);
  policy_out_.forward(cache.pol_act, out.logits);
  path_mask_into(pb, k_, out.mask);
}

void NaiveGnnModel::backward_ws(const te::Problem& pb, const ModelForward& fwd,
                                const nn::Mat& grad_logits, TrainBackward& bws,
                                nn::GradRefs grads) const {
  // params() order: input projection, message-passing layers, policy
  // hidden, policy out — (weight, bias) each.
  const std::size_t n_params = 2 * (layers_.size() + 3);
  const Cache& cache =
      checked_forward<Cache>(fwd, this, grads, n_params, "NaiveGnnModel::backward_ws");
  BackwardCache& ws = owned_cache<BackwardCache>(bws, this);
  const int n = pb.graph().num_nodes();
  const int nd = pb.num_demands();
  const int dim = cfg_.embed_dim;

  policy_out_.backward_acc(cache.pol_act, grad_logits, ws.g_pol_act, *grads[n_params - 2],
                           *grads[n_params - 1]);
  nn::leaky_relu_backward(cache.pol_pre, ws.g_pol_act, ws.g_pol_pre, cfg_.leaky_alpha);
  policy_hidden_.backward_acc(cache.pol_in, ws.g_pol_pre, ws.g_pol_in, *grads[n_params - 4],
                              *grads[n_params - 3]);

  // Scatter policy-input grads back to node embeddings (last MP layer output).
  ws.g_nodes.resize(n, dim);
  ws.g_nodes.zero();
  for (int d = 0; d < nd; ++d) {
    const double* row = ws.g_pol_in.row_ptr(d);
    double* gs = ws.g_nodes.row_ptr(pb.demand(d).src);
    double* gd = ws.g_nodes.row_ptr(pb.demand(d).dst);
    for (int c = 0; c < dim; ++c) {
      gs[c] += row[c];
      gd[c] += row[dim + c];
    }
  }

  for (std::size_t l = layers_.size(); l-- > 0;) {
    nn::leaky_relu_backward(cache.pre[l], ws.g_nodes, ws.g_pre, cfg_.leaky_alpha);
    layers_[l].backward_acc(cache.cat[l], ws.g_pre, ws.g_cat, *grads[2 + 2 * l],
                            *grads[3 + 2 * l]);
    // Split concat grads and undo the mean aggregation.
    ws.g_prev.resize(n, dim);
    ws.g_prev.zero();
    for (int v = 0; v < n; ++v) {
      const double* row = ws.g_cat.row_ptr(v);
      double* gp = ws.g_prev.row_ptr(v);
      for (int c = 0; c < dim; ++c) gp[c] += row[c];
      const auto& outs = pb.graph().out_edges(v);
      if (!outs.empty()) {
        double inv = 1.0 / static_cast<double>(outs.size());
        for (topo::EdgeId e : outs) {
          double* gn = ws.g_prev.row_ptr(pb.graph().edge(e).dst);
          for (int c = 0; c < dim; ++c) gn[c] += row[dim + c] * inv;
        }
      }
    }
    std::swap(ws.g_nodes, ws.g_prev);
  }

  nn::leaky_relu_backward(cache.proj_pre, ws.g_nodes, ws.g_proj_pre, cfg_.leaky_alpha);
  input_proj_.backward_acc(cache.feat, ws.g_proj_pre, ws.g_feat, *grads[0], *grads[1]);
}

std::vector<nn::Param*> NaiveGnnModel::params() {
  std::vector<nn::Param*> ps;
  for (auto* p : input_proj_.params()) ps.push_back(p);
  for (auto& l : layers_) {
    for (auto* p : l.params()) ps.push_back(p);
  }
  for (auto* p : policy_hidden_.params()) ps.push_back(p);
  for (auto* p : policy_out_.params()) ps.push_back(p);
  return ps;
}

// ----------------------------------------------------------- GlobalPolicy

struct GlobalPolicyModel::Cache {
  FlowGnn::Forward gnn;
  nn::Mat flat;                 // (1, P*dim)
  nn::Mat pre, act, out_pre;    // giant layers
};

struct GlobalPolicyModel::BackwardCache {
  nn::Mat g_out, g_act, g_pre, g_flat;  // giant layers
  nn::Mat g_paths;                      // (P, dim) final path-embedding grads
  FlowGnn::BackwardWs gnn;
};

GlobalPolicyModel::GlobalPolicyModel(const GlobalPolicyConfig& cfg, const te::Problem& pb,
                                     std::uint64_t seed)
    : cfg_(cfg), k_(pb.k_paths()), total_paths_(pb.total_paths()) {
  util::Rng rng(seed);
  gnn_ = FlowGnn(cfg.gnn, pb.k_paths(), rng);
  const std::size_t in_dim =
      static_cast<std::size_t>(total_paths_) * static_cast<std::size_t>(effective_final_dim(cfg.gnn));
  const std::size_t n_params = in_dim * static_cast<std::size_t>(cfg.hidden_dim) +
                               static_cast<std::size_t>(cfg.hidden_dim) *
                                   static_cast<std::size_t>(total_paths_);
  if (n_params > cfg.max_params) {
    // The paper: "not feasible for large networks such as ASN due to memory
    // errors" (§5.7). Refuse rather than thrash.
    throw std::length_error("GlobalPolicyModel: parameter count " +
                            std::to_string(n_params) + " exceeds memory budget");
  }
  giant_in_ = nn::Linear(static_cast<int>(in_dim), cfg.hidden_dim, rng);
  giant_out_ = nn::Linear(cfg.hidden_dim, total_paths_, rng);
}

void GlobalPolicyModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                                   const std::vector<double>* capacities, ModelForward& out,
                                   const ShardPlan& shards, ShardStat* stats) const {
  if (pb.total_paths() != total_paths_) {
    throw std::invalid_argument("GlobalPolicyModel: problem mismatch");
  }
  Cache& cache = owned_cache<Cache>(out, this);
  gnn_.forward(pb, tm, capacities, cache.gnn, shards, stats);
  const int dim = effective_final_dim(cfg_.gnn);
  cache.flat.resize(1, total_paths_ * dim);
  for (int p = 0; p < total_paths_; ++p) {
    const double* row = cache.gnn.final_paths.row_ptr(p);
    std::copy(row, row + dim, cache.flat.row_ptr(0) + p * dim);
  }
  giant_in_.forward(cache.flat, cache.pre);
  nn::leaky_relu_forward(cache.pre, cache.act, cfg_.leaky_alpha);
  giant_out_.forward(cache.act, cache.out_pre);  // (1, P)

  path_mask_into(pb, k_, out.mask);
  out.logits.resize(pb.num_demands(), k_);
  out.logits.zero();
  for (int d = 0; d < pb.num_demands(); ++d) {
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k_; ++p, ++slot) {
      out.logits.at(d, slot) = cache.out_pre.at(0, p);
    }
  }
}

void GlobalPolicyModel::backward_ws(const te::Problem& pb, const ModelForward& fwd,
                                    const nn::Mat& grad_logits, TrainBackward& bws,
                                    nn::GradRefs grads) const {
  // params() order: the FlowGNN's, then giant_in_ and giant_out_.
  const std::size_t ng = gnn_.num_params();
  const Cache& cache =
      checked_forward<Cache>(fwd, this, grads, ng + 4, "GlobalPolicyModel::backward_ws");
  BackwardCache& ws = owned_cache<BackwardCache>(bws, this);
  ws.g_out.resize(1, total_paths_);
  ws.g_out.zero();
  for (int d = 0; d < pb.num_demands(); ++d) {
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d) && slot < k_; ++p, ++slot) {
      ws.g_out.at(0, p) = grad_logits.at(d, slot);
    }
  }
  giant_out_.backward_acc(cache.act, ws.g_out, ws.g_act, *grads[ng + 2], *grads[ng + 3]);
  nn::leaky_relu_backward(cache.pre, ws.g_act, ws.g_pre, cfg_.leaky_alpha);
  giant_in_.backward_acc(cache.flat, ws.g_pre, ws.g_flat, *grads[ng], *grads[ng + 1]);

  const int dim = effective_final_dim(cfg_.gnn);
  ws.g_paths.resize(total_paths_, dim);
  for (int p = 0; p < total_paths_; ++p) {
    const double* src = ws.g_flat.row_ptr(0) + p * dim;
    std::copy(src, src + dim, ws.g_paths.row_ptr(p));
  }
  gnn_.backward_ws(pb, cache.gnn, ws.g_paths, ws.gnn, grads.subspan(0, ng));
}

std::vector<nn::Param*> GlobalPolicyModel::params() {
  auto ps = gnn_.params();
  for (auto* p : giant_in_.params()) ps.push_back(p);
  for (auto* p : giant_out_.params()) ps.push_back(p);
  return ps;
}

}  // namespace teal::core
