#include "core/flow_gnn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.h"

namespace teal::core {

FlowGnn::FlowGnn(const FlowGnnConfig& cfg, int k_paths, util::Rng& rng)
    : cfg_(cfg), k_paths_(k_paths) {
  if (cfg.n_blocks < 1) throw std::invalid_argument("FlowGnn: n_blocks < 1");
  if (k_paths < 1) throw std::invalid_argument("FlowGnn: k_paths < 1");
  // Working dims interpolate from 1 to the final dimension; with the default
  // final_dim == n_blocks this is exactly the paper's +1-per-layer widening.
  const int final_dim = effective_final_dim(cfg);
  dims_.resize(static_cast<std::size_t>(cfg.n_blocks));
  for (int l = 0; l < cfg.n_blocks; ++l) {
    dims_[static_cast<std::size_t>(l)] =
        cfg.n_blocks == 1
            ? final_dim
            : 1 + static_cast<int>(std::lround(static_cast<double>(l) *
                                               (final_dim - 1) / (cfg.n_blocks - 1)));
  }
  for (int l = 0; l < cfg.n_blocks; ++l) {
    const int d = dims_[static_cast<std::size_t>(l)];
    lin_.edge.emplace_back(2 * d, d, rng);
    lin_.path.emplace_back(2 * d, d, rng);
    lin_.dnn.emplace_back(k_paths * d, k_paths * d, rng);
  }
}

void FlowGnn::prepare(te::Precision p) {
  auto snapshot = [this](auto& dst, auto snap) {
    dst = {};
    for (const auto& l : lin_.edge) dst.edge.push_back(snap(l));
    for (const auto& l : lin_.path) dst.path.push_back(snap(l));
    for (const auto& l : lin_.dnn) dst.dnn.push_back(snap(l));
  };
  if (p == te::Precision::f32) {
    snapshot(f32_, [](const nn::Linear& l) { return l.snapshot_packed_f32(); });
  } else if (p == te::Precision::bf16) {
    snapshot(bf16_, [](const nn::Linear& l) { return l.snapshot_bf16(); });
  }
}

namespace {
// The first block's input: the 1-dim init feature widened to `width`
// columns (§4's expressiveness technique).
template <typename T>
void widen_init(const nn::BasicMat<T>& feat0, int width, nn::BasicMat<T>& out) {
  out.resize(feat0.rows(), width);
  for (int r = 0; r < feat0.rows(); ++r) {
    std::fill(out.row_ptr(r), out.row_ptr(r) + width, feat0.at(r, 0));
  }
}

// Concat rows [r0, r1) of `cat`: [self row | mean of the `src` rows listed
// by nbrs(r)]. The mean accumulates in list order, so any row partition is
// bit-identical. W > 0 fixes the width at compile time and keeps the sums in
// registers; W == 0 reads it from `self`.
template <int W, typename T, typename Nbrs>
void cat_mean_rows(const nn::BasicMat<T>& self, const nn::BasicMat<T>& src, Nbrs nbrs,
                   nn::BasicMat<T>& cat, int r0, int r1) {
  const int d = W > 0 ? W : self.cols();
  for (int r = r0; r < r1; ++r) {
    T* out = cat.row_ptr(r);
    std::copy(self.row_ptr(r), self.row_ptr(r) + d, out);
    T regs[W > 0 ? W : 1];
    T* acc = W > 0 ? regs : out + d;
    for (int c = 0; c < d; ++c) acc[c] = T(0);
    const auto ns = nbrs(r);
    if (!ns.empty()) {
      for (const auto n : ns) {
        const T* nr = src.row_ptr(static_cast<int>(n));
        for (int c = 0; c < d; ++c) acc[c] += nr[c];
      }
      const T inv = T(1) / static_cast<T>(ns.size());
      for (int c = 0; c < d; ++c) acc[c] *= inv;
    }
    if constexpr (W > 0) std::copy(regs, regs + W, out + W);
  }
}

// Dispatches cat_mean_rows on the block widths of the default models (1..6).
template <typename T, typename Nbrs>
void cat_mean_rows(const nn::BasicMat<T>& self, const nn::BasicMat<T>& src, Nbrs nbrs,
                   nn::BasicMat<T>& cat, int r0, int r1) {
  switch (self.cols()) {
    case 1: return cat_mean_rows<1>(self, src, nbrs, cat, r0, r1);
    case 2: return cat_mean_rows<2>(self, src, nbrs, cat, r0, r1);
    case 3: return cat_mean_rows<3>(self, src, nbrs, cat, r0, r1);
    case 4: return cat_mean_rows<4>(self, src, nbrs, cat, r0, r1);
    case 5: return cat_mean_rows<5>(self, src, nbrs, cat, r0, r1);
    case 6: return cat_mean_rows<6>(self, src, nbrs, cat, r0, r1);
    default: return cat_mean_rows<0>(self, src, nbrs, cat, r0, r1);
  }
}

// LeakyReLU of the d pre-activations at `pre` into `out`, then the widening
// fill of out[d, width) with the init value (§4). Same per-element
// expression as nn::leaky_relu_forward_rows.
template <typename T>
inline void leaky_widen(const T* pre, int d, T alpha, T* out, int width, T fill) {
  for (int c = 0; c < d; ++c) out[c] = pre[c] >= T(0) ? pre[c] : alpha * pre[c];
  std::fill(out + d, out + width, fill);
}
}  // namespace

void FlowGnn::scatter_grad_edges_from_paths(const te::Problem& pb, const nn::Mat& quot,
                                            nn::Mat& g_paths) const {
  // Transpose of aggregate_paths_to_edges: each path on edge e receives
  // quot(e) = g_agg(e) / |paths_on_edge(e)|. Parallelized over paths (gather
  // form) to stay race-free.
  const int np = pb.total_paths();
  const int d = quot.cols();
  util::ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(np), [&](std::size_t b, std::size_t e) {
        for (std::size_t pi = b; pi < e; ++pi) {
          double* out = g_paths.row_ptr(static_cast<int>(pi));
          for (topo::EdgeId ei : pb.path_edges(static_cast<int>(pi))) {
            const double* q = quot.row_ptr(ei);
            for (int c = 0; c < d; ++c) out[c] += q[c];
          }
        }
      });
}

void FlowGnn::scatter_grad_paths_from_edges(const te::Problem& pb, const nn::Mat& quot,
                                            nn::Mat& g_edges) const {
  // Each edge gathers quot(p) = g_agg(p) / |path_edges(p)| from every path
  // traversing it.
  const int ne = pb.graph().num_edges();
  const int d = quot.cols();
  util::ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e) {
        for (std::size_t ei = b; ei < e; ++ei) {
          double* out = g_edges.row_ptr(static_cast<int>(ei));
          for (int p : pb.paths_on_edge(static_cast<topo::EdgeId>(ei))) {
            const double* q = quot.row_ptr(p);
            for (int c = 0; c < d; ++c) out[c] += q[c];
          }
        }
      });
}

template <typename T, typename Lin>
void FlowGnn::edge_pass_rows(const te::Problem& pb, ForwardT<T>& fwd, const Layers<Lin>& lin,
                             int l, int e_begin, int e_end) const {
  // Fused edge side of block l for rows [e_begin, e_end): bipartite
  // aggregation gather (the coupled link-level step — it reads *all* path
  // rows of the block input, which is why blocks need a barrier) into the
  // concat, dense update, and activation written widened into the next
  // block's input. The last block has no edge pass: its edge output feeds
  // nothing. Every write lands in this slice's rows only.
  auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
  const int d = dims_[static_cast<std::size_t>(l)];
  auto& next_in = fwd.blocks[static_cast<std::size_t>(l) + 1].edge_in;
  cat_mean_rows(blk.edge_in, blk.path_in,
                [&pb](int e) { return pb.paths_on_edge(static_cast<topo::EdgeId>(e)); },
                blk.edge_cat, e_begin, e_end);
  lin.edge[static_cast<std::size_t>(l)].forward_rows(blk.edge_cat, blk.edge_pre, e_begin, e_end);
  const T alpha = static_cast<T>(cfg_.leaky_alpha);
  for (int e = e_begin; e < e_end; ++e) {
    leaky_widen(blk.edge_pre.row_ptr(e), d, alpha, next_in.row_ptr(e), next_in.cols(),
                fwd.edge_feat0.at(e, 0));
  }
}

template <typename T, typename Lin>
void FlowGnn::demand_pass_rows(const te::Problem& pb, ForwardT<T>& fwd, const Layers<Lin>& lin,
                               int l, int d_begin, int d_end) const {
  // Fused demand side of block l for demands [d_begin, d_end): per-path
  // aggregation/dense update with its activation written straight into the
  // DNN input slots, then the per-demand DNN layer with its activation
  // written widened into the next block's input (or into the final
  // embeddings). Paths of a demand are contiguous, so the slice touches only
  // its own rows of every matrix.
  auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
  const int d = dims_[static_cast<std::size_t>(l)];
  const int k = k_paths_;
  const bool last = l + 1 >= cfg_.n_blocks;
  nn::BasicMat<T>& out =
      last ? fwd.final_paths : fwd.blocks[static_cast<std::size_t>(l) + 1].path_in;
  const T alpha = static_cast<T>(cfg_.leaky_alpha);
  if (d_begin >= d_end) return;
  // The slice's paths are contiguous (demands own contiguous path ranges),
  // so every dense kernel runs once over the whole slice.
  const int p_begin = pb.path_begin(d_begin);
  const int p_end = pb.path_end(d_end - 1);
  // --- GNN layer, path side.
  cat_mean_rows(blk.path_in, blk.edge_in, [&pb](int p) { return pb.path_edges(p); },
                blk.path_cat, p_begin, p_end);
  lin.path[static_cast<std::size_t>(l)].forward_rows(blk.path_cat, blk.path_pre, p_begin, p_end);
  // --- DNN layer: coordinate the k paths of each demand. Demands with
  // fewer than k paths keep zero padding in their trailing slots.
  for (int dem = d_begin; dem < d_end; ++dem) {
    T* row = blk.dnn_in.row_ptr(dem);
    const int n = pb.num_paths(dem);
    for (int slot = 0; slot < n; ++slot) {
      leaky_widen(blk.path_pre.row_ptr(pb.path_begin(dem) + slot), d, alpha, row + slot * d, d,
                  T(0));
    }
    std::fill(row + n * d, row + k * d, T(0));
  }
  lin.dnn[static_cast<std::size_t>(l)].forward_rows(blk.dnn_in, blk.dnn_pre, d_begin, d_end);
  // --- Activation, widened toward the next block's dimension and refilled
  // with the initialization value (§4), or the final embeddings.
  for (int dem = d_begin; dem < d_end; ++dem) {
    const T* pre = blk.dnn_pre.row_ptr(dem);
    for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p) {
      leaky_widen(pre + (p - pb.path_begin(dem)) * d, d, alpha, out.row_ptr(p), out.cols(),
                  fwd.path_feat0.at(p, 0));
    }
  }
}

template <typename T, typename Lin>
void FlowGnn::forward_impl(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ForwardT<T>& fwd,
                           const ShardPlan& shards, ShardStat* stats,
                           const Layers<Lin>& lin) const {
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const int nd = pb.num_demands();
  const int k = k_paths_;

  fwd.blocks.resize(static_cast<std::size_t>(cfg_.n_blocks));

  // Initial 1-dim features, normalized by the mean link capacity so both
  // entities live on comparable scales (§3.2). The mean is a cross-demand
  // reduction, computed sequentially — and always in double, even on the
  // f32 path — so every shard plan sees identical bits and the narrowed
  // path loses precision only in the per-row NN arithmetic.
  if (capacities == nullptr) {
    pb.capacities_into(fwd.caps);
    capacities = &fwd.caps;
  }
  const std::vector<double>& caps = *capacities;
  double mean_cap = 1e-9;
  for (double c : caps) mean_cap += c;
  mean_cap /= std::max<std::size_t>(1, caps.size());
  fwd.edge_feat0.resize(ne, 1);
  for (int e = 0; e < ne; ++e) {
    fwd.edge_feat0.at(e, 0) = static_cast<T>(caps[static_cast<std::size_t>(e)] / mean_cap);
  }
  fwd.path_feat0.resize(np, 1);
  for (int p = 0; p < np; ++p) {
    fwd.path_feat0.at(p, 0) = static_cast<T>(
        tm.volume[static_cast<std::size_t>(pb.demand_of_path(p))] / mean_cap);
  }

  widen_init(fwd.edge_feat0, dims_[0], fwd.blocks[0].edge_in);
  widen_init(fwd.path_feat0, dims_[0], fwd.blocks[0].path_in);

  for (int l = 0; l < cfg_.n_blocks; ++l) {
    auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = dims_[static_cast<std::size_t>(l)];

    // Size every buffer of the block before fanning out — resize must never
    // run concurrently, and pre-sizing keeps warm passes allocation-free
    // exactly as before.
    const bool last = l + 1 == cfg_.n_blocks;
    blk.path_cat.resize(np, 2 * d);
    blk.path_pre.resize(np, d);
    blk.dnn_in.resize(nd, k * d);
    blk.dnn_pre.resize(nd, k * d);
    if (!last) {
      const int next = dims_[static_cast<std::size_t>(l) + 1];
      auto& nxt = fwd.blocks[static_cast<std::size_t>(l) + 1];
      blk.edge_cat.resize(ne, 2 * d);
      blk.edge_pre.resize(ne, d);
      nxt.edge_in.resize(ne, next);
      nxt.path_in.resize(np, next);
      // Edge pass (coupled link-level step): parallel over edge rows through
      // the pool — deterministic per row, so identical under any chunking.
      util::ThreadPool::global().parallel_chunks(
          static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e) {
            edge_pass_rows(pb, fwd, lin, l, static_cast<int>(b), static_cast<int>(e));
          });
    } else {
      fwd.final_paths.resize(np, d);
    }

    // Demand pass: fanned over the shard plan, each shard writing its own
    // demand slice of the shared workspace.
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      demand_pass_rows(pb, fwd, lin, l, d0, d1);
    });
  }
}

void FlowGnn::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                      const std::vector<double>* capacities, Forward& fwd,
                      const ShardPlan& shards, ShardStat* stats) const {
  forward_impl(pb, tm, capacities, fwd, shards, stats, lin_);
}

void FlowGnn::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                      const std::vector<double>* capacities, ForwardF& fwd, te::Precision p,
                      const ShardPlan& shards, ShardStat* stats) const {
  if (p == te::Precision::f64) {
    throw std::invalid_argument("FlowGnn::forward: the narrowed forward needs f32 or bf16");
  }
  if (p == te::Precision::f32 ? f32_.edge.empty() : bf16_.edge.empty()) {
    throw std::logic_error(std::string("FlowGnn::forward: prepare(") + te::precision_name(p) +
                           ") has not been called (use te::Scheme::set_precision, which "
                           "snapshots the weights)");
  }
  if (p == te::Precision::bf16) {
    forward_impl(pb, tm, capacities, fwd, shards, stats, bf16_);
  } else {
    forward_impl(pb, tm, capacities, fwd, shards, stats, f32_);
  }
}

void FlowGnn::backward_ws(const te::Problem& pb, const Forward& fwd,
                          const nn::Mat& grad_final_paths, BackwardWs& ws,
                          nn::GradRefs grads) const {
  if (grads.size() != num_params()) {
    throw std::invalid_argument("FlowGnn::backward_ws: grads size mismatch");
  }
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const int nd = pb.num_demands();
  const int k = k_paths_;
  const std::size_t n_layers = lin_.edge.size();
  // (weight, bias) accumulator pair of layer l within a layer-kind block.
  auto pair_of = [&](std::size_t block, std::size_t l) {
    return std::pair<nn::Mat&, nn::Mat&>(*grads[(block * n_layers + l) * 2],
                                         *grads[(block * n_layers + l) * 2 + 1]);
  };

  ws.g_path_out.resize(np, grad_final_paths.cols());
  std::copy(grad_final_paths.data().begin(), grad_final_paths.data().end(),
            ws.g_path_out.data().begin());

  for (int l = cfg_.n_blocks - 1; l >= 0; --l) {
    const auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = dims_[static_cast<std::size_t>(l)];
    const auto ls = static_cast<std::size_t>(l);

    // --- DNN layer backward. Demands with fewer than k paths leave their
    // trailing slots untouched, so the gather buffer must start zeroed.
    ws.g_dnn_act.resize(nd, k * d);
    ws.g_dnn_act.zero();
    for (int dem = 0; dem < nd; ++dem) {
      double* row = ws.g_dnn_act.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(ws.g_path_out.row_ptr(p), ws.g_path_out.row_ptr(p) + d, row + slot * d);
      }
    }
    nn::leaky_relu_backward(blk.dnn_pre, ws.g_dnn_act, ws.g_dnn_pre, cfg_.leaky_alpha);
    {
      auto [gw, gb] = pair_of(2, ls);
      lin_.dnn[ls].backward_acc(blk.dnn_in, ws.g_dnn_pre, ws.g_dnn_in, gw, gb);
    }
    ws.g_path_act.resize(np, d);
    ws.g_path_act.zero();
    for (int dem = 0; dem < nd; ++dem) {
      const double* row = ws.g_dnn_in.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(row + slot * d, row + (slot + 1) * d, ws.g_path_act.row_ptr(p));
      }
    }

    // --- GNN layer backward (edge and path updates are independent given
    // the block inputs, because message passing is synchronous). The last
    // block's edge output feeds nothing, so its gradient is exactly zero:
    // its edge update backward and the path scatter it feeds are skipped
    // (zero gradient entries add nothing to the parameter grads).
    const bool last = l + 1 == cfg_.n_blocks;
    nn::leaky_relu_backward(blk.path_pre, ws.g_path_act, ws.g_path_pre, cfg_.leaky_alpha);
    {
      auto [gw, gb] = pair_of(1, ls);
      lin_.path[ls].backward_acc(blk.path_cat, ws.g_path_pre, ws.g_path_cat, gw, gb);
    }
    if (!last) {
      nn::leaky_relu_backward(blk.edge_pre, ws.g_edge_out, ws.g_edge_pre, cfg_.leaky_alpha);
      auto [gw, gb] = pair_of(0, ls);
      lin_.edge[ls].backward_acc(blk.edge_cat, ws.g_edge_pre, ws.g_edge_cat, gw, gb);
    }

    // Split the concat grads: [self | agg], the agg half divided by the
    // row's aggregation count once here rather than once per (row,
    // neighbor) in the scatters. A row with no neighbors is never gathered.
    auto split = [d](const double* src, int cnt, double* self, double* quot) {
      std::copy(src, src + d, self);
      for (int c = 0; c < d; ++c) quot[c] = cnt == 0 ? 0.0 : src[d + c] / cnt;
    };
    ws.g_path_in.resize(np, d);
    ws.g_agg_edges.resize(np, d);
    for (int p = 0; p < np; ++p) {
      split(ws.g_path_cat.row_ptr(p), static_cast<int>(pb.path_edges(p).size()),
            ws.g_path_in.row_ptr(p), ws.g_agg_edges.row_ptr(p));
    }
    ws.g_edge_in.resize(ne, d);
    if (last) {
      ws.g_edge_in.zero();
    } else {
      ws.g_agg_paths.resize(ne, d);
      for (int e = 0; e < ne; ++e) {
        split(ws.g_edge_cat.row_ptr(e), static_cast<int>(pb.paths_on_edge(e).size()),
              ws.g_edge_in.row_ptr(e), ws.g_agg_paths.row_ptr(e));
      }
    }
    // Aggregation transposes (accumulate on top of the self halves).
    scatter_grad_paths_from_edges(pb, ws.g_agg_edges, ws.g_edge_in);
    if (!last) scatter_grad_edges_from_paths(pb, ws.g_agg_paths, ws.g_path_in);

    // --- Widening backward: the previous block's outputs are the leading
    // columns of this block's inputs (appended init columns are constants).
    if (l > 0) {
      const int prev = dims_[ls - 1];
      ws.g_path_out.resize(np, prev);
      for (int p = 0; p < np; ++p) {
        std::copy(ws.g_path_in.row_ptr(p), ws.g_path_in.row_ptr(p) + prev,
                  ws.g_path_out.row_ptr(p));
      }
      ws.g_edge_out.resize(ne, prev);
      for (int e = 0; e < ne; ++e) {
        std::copy(ws.g_edge_in.row_ptr(e), ws.g_edge_in.row_ptr(e) + prev,
                  ws.g_edge_out.row_ptr(e));
      }
    }
  }
}

std::vector<nn::Param*> FlowGnn::params() {
  std::vector<nn::Param*> ps;
  ps.reserve(num_params());
  append_params(ps);
  return ps;
}

void FlowGnn::append_params(std::vector<nn::Param*>& out) {
  for (auto& l : lin_.edge) l.append_params(out);
  for (auto& l : lin_.path) l.append_params(out);
  for (auto& l : lin_.dnn) l.append_params(out);
}

}  // namespace teal::core
