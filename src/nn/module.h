// module.h — trainable parameters, Linear layer, Adam, serialization.
//
// A deliberately small substrate: parameters register themselves with their
// owning module, the Adam optimizer (the paper trains Teal with Adam at
// lr 1e-4, §4) walks the registry, and save/load streams raw doubles with a
// shape header so trained Teal models can be cached between bench runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/mat.h"
#include "nn/packed.h"
#include "util/arena.h"
#include "util/rng.h"

namespace teal::nn {

struct Param {
  Mat w;  // value
  Mat g;  // gradient accumulator, same shape

  explicit Param(int rows = 0, int cols = 0) : w(rows, cols), g(rows, cols) {}
  void zero_grad() { g.zero(); }
};

// View of per-parameter gradient targets in params() order. The workspace
// backward passes (Linear::backward_acc and the model backward_ws chains)
// accumulate into these instead of the layers' own Param::g — the explicit
// accumulator seam that lets batched training give every rollout its own
// gradient set and reduce them in a fixed order afterwards.
using GradRefs = std::span<Mat* const>;

// The parameters' own Param::g, in order: the GradRefs target that makes a
// workspace backward accumulate straight into the parameter gradients.
std::vector<Mat*> grad_targets(const std::vector<Param*>& params);

// One gradient accumulator per parameter, shaped like `params` and addressed
// through refs(). Rollout workers accumulate into disjoint GradAccums
// (commuting writes), then reduce_into() folds them into Param::g strictly
// in call order — so the summed gradient is bit-identical for every worker
// count (same contract as core::ShardPlan, but for parameter space).
class GradAccum {
 public:
  // Sizes the set to match `params` (no-op when already matching, so warm
  // training steps pay nothing).
  void prepare(const std::vector<Param*>& params);
  void zero();
  GradRefs refs() const { return {refs_.data(), refs_.size()}; }

  // Param::g += this set, elementwise, sequentially. Callers reduce the
  // per-rollout sets in rollout order to keep bit-identity.
  void reduce_into(const std::vector<Param*>& params) const;

 private:
  // Arena-aware storage: a TrainContext prepares its per-slot GradAccums
  // under its own arena binding, so the B x num_params gradient matrices —
  // the bulk of a training context's cold-start allocations — land in a few
  // arena chunks instead of hundreds of heap blocks.
  util::AVec<Mat> g_;
  util::AVec<Mat*> refs_;
};

// Xavier-uniform init, the default for the small dense layers here.
void xavier_init(Mat& w, util::Rng& rng);

// f32 inference snapshot of a Linear: weights and bias narrowed once, read-only
// afterwards. The narrowed solve path (TealScheme::set_precision(f32)) runs its
// forward through these snapshots while training and the f64 path keep using
// the double parameters — re-snapshot (Linear::snapshot_f32) after any further
// parameter update.
struct LinearF32 {
  MatF w;               // (out, in)
  std::vector<float> b; // (out)

  void forward_rows(const MatF& x, MatF& y, int row_begin, int row_end) const {
    linear_forward_rows(x, w, b, y, row_begin, row_end);
  }
  int in_features() const { return w.cols(); }
  int out_features() const { return w.rows(); }
};

// Blocked-layout inference snapshot: weights live in lane-blocked panels
// (nn::PackedMat) so forward_rows runs the broadcast-FMA kernel instead of
// the strided dot products. W = float is the default narrowed (f32) path;
// W = bf16 stores the weights rounded to bfloat16 (round-to-nearest-even at
// snapshot time, widened back to f32 in the kernel inner loop) — activations
// and bias stay f32 either way. Same read-only/re-snapshot contract as
// LinearF32.
template <typename W>
struct PackedLinear {
  PackedMat<W> w;       // (out, in) lane-blocked panels
  std::vector<float> b; // (out), always f32 (the accumulation seed)

  void forward_rows(const MatF& x, MatF& y, int row_begin, int row_end) const {
    linear_forward_rows_blocked(x, w, b, y, row_begin, row_end);
  }
  int in_features() const { return w.cols(); }
  int out_features() const { return w.rows(); }
};
using LinearPackedF32 = PackedLinear<float>;
using LinearBf16 = PackedLinear<bf16>;

class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, util::Rng& rng);

  // y = x Wᵀ + b; caches nothing (callers keep x for backward).
  void forward(const Mat& x, Mat& y) const;
  // Row-range forward for demand-sharded callers; `y` must be pre-sized to
  // (x.rows(), out_features()). Bit-identical to forward() per row.
  void forward_rows(const Mat& x, Mat& y, int row_begin, int row_end) const;
  // The backward: writes the input grad `gx` and accumulates the parameter
  // grads into caller-owned targets (gw shaped (out, in), gb shaped
  // (1, out)) — this layer's own Param::g, or a per-rollout GradAccum. const
  // because the layer itself stays read-only — concurrent calls with
  // distinct targets are safe, which is what fans batched training out
  // across workers.
  void backward_acc(const Mat& x, const Mat& gy, Mat& gx, Mat& gw, Mat& gb) const;

  // Narrows the current parameters into an f32 inference snapshot (row-major;
  // kept for kernel-comparison tests/benches — the solve path snapshots the
  // blocked variants below).
  LinearF32 snapshot_f32() const;
  // Blocked-panel snapshots for the narrowed solve paths: f64 -> f32 (round
  // to nearest) packed into panels, and f64 -> f32 -> bf16 (round-to-nearest-
  // even on the second narrowing) for the storage-halved variant.
  LinearPackedF32 snapshot_packed_f32() const;
  LinearBf16 snapshot_bf16() const;

  int in_features() const { return weight_.w.cols(); }
  int out_features() const { return weight_.w.rows(); }

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  // Allocation-free variant for module-level params() builders: appending
  // into one reserved vector keeps a whole model's parameter walk at a
  // single heap allocation (the cold-path TrainContext contract counts it).
  void append_params(std::vector<Param*>& out) {
    out.push_back(&weight_);
    out.push_back(&bias_);
  }

 private:
  Param weight_;  // (out, in)
  Param bias_;    // (1, out)
};

// Adam over an explicit parameter list (decoupled from module structure).
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  void zero_grad();
  // One descent step using the accumulated gradients (minimization).
  void step();
  // Clips the global gradient L2 norm to `max_norm` (0 disables).
  void clip_grad_norm(double max_norm);

  double lr = 1e-4;

 private:
  std::vector<Param*> params_;
  std::vector<Mat> m_, v_;
  double beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

// Binary serialization of a parameter list. save_params writes a temp file
// next to `path` and renames it into place (throws on any I/O failure); the
// file ends in a trailer holding the payload's byte length and a 64-bit
// FNV-1a checksum of it. load_params is all-or-nothing: it returns false —
// with every parameter unchanged — unless the trailer matches, the payload
// parses completely, every shape matches and no bytes trail the last matrix.
void save_params(const std::string& path, const std::vector<Param*>& params);
bool load_params(const std::string& path, const std::vector<Param*>& params);

}  // namespace teal::nn
