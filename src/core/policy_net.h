// policy_net.h — the shared per-demand policy network (§3.3, §4).
//
// Each demand is allocated *independently* by one RL agent; all agents share
// this network. Per §4, the default shape is: 24 input neurons (4 flow
// embeddings of 6 elements each), one hidden layer of 24 neurons, and 4
// output neurons followed by softmax normalization into split ratios. The
// number of dense layers is configurable for the Figure 15c sensitivity
// sweep. Because the network is per-demand, its parameter count is oblivious
// to the WAN topology size — the property that makes learning tractable.
//
// Like FlowGnn, the module has one f64 forward (the demand-sharded
// prepare_forward/forward_rows pair), one narrowed forward keyed by
// te::Precision (the same pair over a float cache, after prepare(p)), and one
// backward (backward_ws, into caller-chosen gradient targets).
#pragma once

#include <optional>
#include <vector>

#include "nn/module.h"
#include "te/problem.h"
#include "te/scheme.h"

namespace teal::core {

struct PolicyConfig {
  int hidden_dim = 24;
  int n_hidden_layers = 1;   // dense layers before the output layer
  double leaky_alpha = 0.01;
};

class PolicyNet {
 public:
  // in_dim = k_paths * embedding_dim; out_dim = k_paths.
  PolicyNet(const PolicyConfig& cfg, int in_dim, int k_paths, util::Rng& rng);

  // Doubles as a reusable workspace: repeated forwards into the same object
  // resize every Mat within its existing capacity.
  // ForwardT<double> (alias Forward) is the reference/training cache;
  // ForwardT<float> (alias ForwardF) the narrowed inference mirror.
  template <typename T>
  struct ForwardT {
    nn::BasicMat<T> input;              // (D, in_dim)
    util::AVec<nn::BasicMat<T>> pre;    // hidden pre-activations
    util::AVec<nn::BasicMat<T>> act;    // hidden activations
    nn::BasicMat<T> logits;             // (D, k)
  };
  using Forward = ForwardT<double>;
  using ForwardF = ForwardT<float>;

  // The f64 forward, as a demand-sharded pair: prepare_forward() sizes
  // pre/act/logits for the (already filled, e.g. via build_policy_input)
  // fwd.input — it must run on one thread before the fan-out, since
  // nn::Mat::resize is not concurrency-safe — then each shard runs
  // forward_rows() on its own demand slice, touching only those rows.
  // Bit-identical for any row partition; allocation-free once warm.
  void prepare_forward(Forward& fwd) const;
  void forward_rows(Forward& fwd, int row_begin, int row_end) const;

  // The narrowed forward at precision `p` (f32 or bf16 weight panels, f32
  // activations either way) over the same sharding contract. Throws
  // std::invalid_argument for f64 and std::logic_error when prepare(p) has
  // not run (te::Scheme::set_precision snapshots the weights).
  void prepare_forward(ForwardF& fwd, te::Precision p) const;
  void forward_rows(ForwardF& fwd, te::Precision p, int row_begin, int row_end) const;

  // Snapshots the current parameters into the blocked panels the narrowed
  // forward at `p` reads (f64 -> f32 round-to-nearest, then for bf16
  // f32 -> bf16 round-to-nearest-even). No-op for f64. Not thread-safe
  // against concurrent forwards; re-call after any parameter update.
  void prepare(te::Precision p);

  // Backward from d(loss)/d(logits); writes d(loss)/d(input). The per-layer
  // grad temporaries live in `ws` (warm calls allocate nothing) and the
  // parameter grads accumulate into `grads` — num_params() entries in
  // params() order (nn::grad_targets(params()) targets Param::g). const:
  // concurrent calls with distinct ws/grads are safe.
  struct BackwardWs {
    nn::Mat g_cur, g_pre;
  };
  void backward_ws(const Forward& fwd, const nn::Mat& grad_logits, BackwardWs& ws,
                   nn::Mat& grad_input, nn::GradRefs grads) const;

  std::vector<nn::Param*> params();
  // Appends the same pointers into a caller-reserved vector without the
  // per-layer temporaries params() composition would cost.
  void append_params(std::vector<nn::Param*>& out);
  std::size_t num_params() const { return (hidden_.size() + 1) * 2; }

  int k_paths() const { return k_paths_; }
  int in_dim() const { return in_dim_; }

 private:
  // Shared body of the f64 and narrowed prepare_forward/forward_rows pairs.
  template <typename T, typename Lin, typename Out>
  void prepare_forward_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden,
                            const Out& out) const;
  template <typename T, typename Lin, typename Out>
  void forward_rows_impl(ForwardT<T>& fwd, const std::vector<Lin>& hidden, const Out& out,
                         int row_begin, int row_end) const;

  PolicyConfig cfg_;
  int in_dim_, k_paths_;
  std::vector<nn::Linear> hidden_;
  nn::Linear out_;
  // Narrowed inference mirrors, stored as lane-blocked panels: f32 and bf16
  // storage, each empty until prepare() at that precision.
  std::vector<nn::LinearPackedF32> hidden_f32_;
  std::optional<nn::LinearPackedF32> out_f32_;
  std::vector<nn::LinearBf16> hidden_bf16_;
  std::optional<nn::LinearBf16> out_bf16_;
};

// Assembles the (D, k*dim) policy input matrix from final path embeddings and
// the (D, k) validity mask (1 where the demand has an i-th path).
void build_policy_input(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                        nn::Mat& input, nn::Mat& mask);

// Row-range variant for sharded callers: fills demand rows [d_begin, d_end)
// of `input`/`mask`, which must be pre-sized to (D, k*dim) and (D, k).
void build_policy_input_rows(const te::Problem& pb, const nn::Mat& path_embeddings, int k,
                             nn::Mat& input, nn::Mat& mask, int d_begin, int d_end);

// f32 variant for the narrowed inference path: the embeddings and the policy
// input are float, but the validity mask stays double — it feeds the f64
// masked softmax downstream, so only NN arithmetic narrows.
void build_policy_input_rows(const te::Problem& pb, const nn::MatF& path_embeddings, int k,
                             nn::MatF& input, nn::Mat& mask, int d_begin, int d_end);

// Contract guard at the policy boundary: a demand that owns at least one
// path must have at least one nonzero mask entry, otherwise the masked
// softmax silently emits an all-zero split row that downstream ADMM consumes
// as "route nothing" (demands with zero paths legitimately keep all-zero
// rows). Throws std::logic_error naming the first offending demand. Checks
// demand rows [d_begin, d_end); cheap (O(rows * k)), run per shard slice on
// the solve path.
void check_policy_mask_rows(const te::Problem& pb, const nn::Mat& mask, int d_begin,
                            int d_end);

// Scatters d(loss)/d(policy input) back into a (N_p, dim) path-embedding grad.
void scatter_policy_input_grad(const te::Problem& pb, const nn::Mat& grad_input, int k,
                               int dim, nn::Mat& grad_paths);

}  // namespace teal::core
