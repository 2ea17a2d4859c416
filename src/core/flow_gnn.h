// flow_gnn.h — the FlowGNN feature extractor (§3.2, §4).
//
// FlowGNN is a flow-centric GNN: the *graph attributes* are not WAN sites but
// flow-related entities — one EdgeNode per directed link and one PathNode per
// preconfigured path. An EdgeNode and a PathNode are adjacent iff the edge
// lies on the path. The network alternates between
//   * GNN layers (bipartite message passing EdgeNodes <-> PathNodes) that
//     capture capacity constraints, and
//   * DNN layers (a shared fully-connected layer applied per demand to the
//     concatenation of that demand's PathNode embeddings) that capture demand
//     constraints — PathNodes of the same demand are not otherwise connected.
//
// Initialization follows §3.2: EdgeNode embeddings start from the link
// capacity, PathNode embeddings from the demand volume (both normalized by
// the mean link capacity). Per §4 the embedding starts at one element and is
// widened by one element after every block, refilled with the initialization
// value (the expressiveness technique of Nair et al.); with the default 6
// blocks the final embeddings have 6 elements.
//
// Everything is implemented with explicit forward caches and one
// hand-written backward pass — the model is small enough that a full
// autograd engine would be pure overhead. The module has one f64 forward
// (demand-sharded, into a reusable workspace), one narrowed forward keyed by
// te::Precision (f32 or bf16 weight panels, after prepare(p)), and one
// backward (backward_ws, into caller-chosen gradient targets).
#pragma once

#include <vector>

#include "core/shard.h"
#include "nn/module.h"
#include "te/problem.h"
#include "te/scheme.h"

namespace teal::core {

struct FlowGnnConfig {
  int n_blocks = 6;   // GNN+DNN blocks (Fig 15a sweeps 4/6/8/10)
  int final_dim = 0;  // final embedding elements; 0 = n_blocks, the paper's
                      // default of +1 element per layer (Fig 15b sweeps 6/12/24)
  double leaky_alpha = 0.01;
};

// Resolved final embedding dimension for a config.
inline int effective_final_dim(const FlowGnnConfig& cfg) {
  return cfg.final_dim > 0 ? cfg.final_dim : cfg.n_blocks;
}

class FlowGnn {
 public:
  FlowGnn() = default;  // empty shell; assign a properly constructed one

  // The layer shapes depend on k_paths (DNN layers act on k concatenated
  // path embeddings), so construction takes the problem's k.
  FlowGnn(const FlowGnnConfig& cfg, int k_paths, util::Rng& rng);

  // Forward caches double as a reusable workspace: run forward() into the
  // same Forward object repeatedly and every Mat resizes in place, so steady-
  // state passes perform no heap allocation.
  //
  // Precision-parameterized: ForwardT<double> (alias Forward) is the
  // reference/training cache, ForwardT<float> (alias ForwardF) the narrowed
  // inference mirror. Only the f64 cache feeds backward_ws().
  template <typename T>
  struct ForwardT {
    // Per-block caches needed by backward. Each activation is written
    // straight to its consumer (the DNN input slots, the next block's
    // inputs, final_paths), so no post-activation copy is kept. The last
    // block has no edge pass (its edge output feeds nothing): its edge_cat
    // and edge_pre stay unsized.
    struct Block {
      nn::BasicMat<T> edge_in, path_in;    // block inputs (N_e x d), (N_p x d)
      nn::BasicMat<T> edge_cat, path_cat;  // concat [self, agg] inputs to the linears
      nn::BasicMat<T> edge_pre, path_pre;  // pre-activations
      nn::BasicMat<T> dnn_in, dnn_pre;     // per-demand concat (D x k*d) and pre-act
    };
    // Arena-aware like the Mats inside: a cold forward under a bound
    // util::Arena grows the whole block list out of the arena.
    util::AVec<Block> blocks;
    nn::BasicMat<T> edge_feat0, path_feat0;  // initial 1-dim features (for widening)
    nn::BasicMat<T> final_paths;             // (N_p x n_blocks) final path embeddings
    std::vector<double> caps;  // capacity snapshot when none is passed (always f64)
  };
  using Forward = ForwardT<double>;
  using ForwardF = ForwardT<float>;

  // The f64 forward: runs the GNN over the problem structure with the given
  // per-interval inputs, writing into (and reusing) the caller-owned
  // workspace. `capacities` may override the graph's (link failures, §5.3).
  // Each block runs as two fused passes: an edge pass (per-edge aggregation +
  // dense update, the coupled link-level step, parallelized over edge rows;
  // skipped in the last block, whose edge output feeds nothing) and a demand
  // pass fanned over `shards` — each shard runs the whole path/DNN pipeline
  // for its demand slice [begin, end), writing disjoint rows of the shared
  // Forward workspace. Results are bit-identical for every shard plan;
  // `stats` (optional, shards.n_shards entries) accumulates per-shard busy
  // time.
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, Forward& fwd,
               const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // The narrowed forward at precision `p` (f32 or bf16 weight panels; the
  // activations and every accumulation are f32 either way) over the same
  // pass structure and sharding contract, so any shard plan produces
  // bit-identical narrowed results too. Mean-capacity normalization is
  // computed in double and narrowed once, so only the per-row NN arithmetic
  // changes precision. Throws std::invalid_argument for f64 and
  // std::logic_error when prepare(p) has not run.
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, ForwardF& fwd, te::Precision p,
               const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // Snapshots the current parameters into the blocked weight panels the
  // narrowed forward at `p` reads: f64 -> f32 round-to-nearest, and for bf16
  // a further f32 -> bf16 round-to-nearest-even. No-op for f64. Not
  // thread-safe against concurrent forwards; call before inference starts and
  // re-call after any parameter update. Each precision keeps its own
  // snapshot.
  void prepare(te::Precision p);

  // Backpropagates `grad_final_paths` (same shape as Forward::final_paths).
  // Every per-block grad temporary is owned by `ws` (allocation-free once
  // warm) and the parameter grads accumulate into `grads` — num_params()
  // entries in params() order (nn::grad_targets(params()) targets Param::g).
  // const: concurrent calls with distinct ws/grads are safe.
  struct BackwardWs {
    nn::Mat g_path_out, g_edge_out;          // running output grads per block
    nn::Mat g_dnn_act, g_dnn_pre, g_dnn_in;  // DNN-layer backward
    nn::Mat g_path_act, g_path_pre, g_path_cat;
    nn::Mat g_edge_pre, g_edge_cat;
    nn::Mat g_path_in, g_edge_in;            // concat-split self halves
    // Concat-split aggregation halves, each row already divided by its
    // aggregation count (path rows by edges on the path, edge rows by paths
    // on the edge): the quotients the scatters gather.
    nn::Mat g_agg_edges, g_agg_paths;
  };
  void backward_ws(const te::Problem& pb, const Forward& fwd,
                   const nn::Mat& grad_final_paths, BackwardWs& ws,
                   nn::GradRefs grads) const;

  std::vector<nn::Param*> params();
  // Appends the same pointers into a caller-reserved vector without the
  // per-layer temporaries params() composition would cost.
  void append_params(std::vector<nn::Param*>& out);
  // Layout of params()/backward_ws grads: per layer-kind blocks of (weight,
  // bias) pairs — edge layers first, then path layers, then DNN layers.
  std::size_t num_params() const {
    return (lin_.edge.size() + lin_.path.size() + lin_.dnn.size()) * 2;
  }

  int final_dim() const { return dims_.empty() ? 0 : dims_.back(); }
  // Working embedding dimension of block l.
  int block_dim(int l) const { return dims_[static_cast<std::size_t>(l)]; }
  const FlowGnnConfig& config() const { return cfg_; }
  int k_paths() const { return k_paths_; }

 private:
  // One layer list per layer kind, indexed by block: edge-update, path-update
  // (input 2d -> d) and DNN (k*d -> k*d). Lin is nn::Linear for the trained
  // f64 parameters, a blocked nn::PackedLinear for the narrowed mirrors.
  template <typename Lin>
  struct Layers {
    std::vector<Lin> edge, path, dnn;
  };

  // Fused per-row passes of one block (see forward), generic over the
  // element type T and the layer type Lin: the edge pass covers edge rows
  // [e_begin, e_end), the demand pass covers demands [d_begin, d_end) —
  // aggregation gather, concat, dense update, activation and widening for
  // the slice, all reading only buffers stable during the block.
  template <typename T, typename Lin>
  void edge_pass_rows(const te::Problem& pb, ForwardT<T>& fwd, const Layers<Lin>& lin, int l,
                      int e_begin, int e_end) const;
  template <typename T, typename Lin>
  void demand_pass_rows(const te::Problem& pb, ForwardT<T>& fwd, const Layers<Lin>& lin,
                        int l, int d_begin, int d_end) const;
  // Shared body of the f64 and narrowed forwards.
  template <typename T, typename Lin>
  void forward_impl(const te::Problem& pb, const te::TrafficMatrix& tm,
                    const std::vector<double>* capacities, ForwardT<T>& fwd,
                    const ShardPlan& shards, ShardStat* stats, const Layers<Lin>& lin) const;

  // Backward message-passing transposes: gather-add the per-row quotients
  // (BackwardWs::g_agg_*) in neighbor-list order.
  void scatter_grad_edges_from_paths(const te::Problem& pb, const nn::Mat& quot,
                                     nn::Mat& g_paths) const;
  void scatter_grad_paths_from_edges(const te::Problem& pb, const nn::Mat& quot,
                                     nn::Mat& g_edges) const;

  FlowGnnConfig cfg_;
  int k_paths_ = 0;
  // Working dim per block: interpolated from 1 up to effective_final_dim by
  // widening (appending init-value columns) between blocks (§4).
  std::vector<int> dims_;
  Layers<nn::Linear> lin_;
  // Narrowed inference mirrors of the same layers, stored as lane-blocked
  // panels so the forward runs the broadcast-FMA kernel: f32 panels and
  // bf16-storage panels, each empty until prepare() at that precision.
  Layers<nn::LinearPackedF32> f32_;
  Layers<nn::LinearBf16> bf16_;
};

}  // namespace teal::core
