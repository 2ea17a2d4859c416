// packed.h — blocked, lane-aligned weight panels for the narrowed forward.
//
// A row-major kernel computes each output neuron as a dot product along the
// *input* dimension. For this repo's layer shapes (in <= 24) that wastes the
// vector unit: every dot ends in a horizontal reduction, and splitting it
// over partial accumulators only pays off when the input span is long. The
// blocked layout turns the problem sideways: weights are stored as
// column-blocked panels of kPanelLanes consecutive *outputs* per input
// column, so the inner loop broadcasts one input value and FMAs it into a
// unit-stride lane vector — no gathers, no horizontal sums, and every store
// is contiguous. This is the standard GEMM micro-kernel layout (panel-packed
// B), scaled down to the GNN's tiny dense layers.
//
// Precision discipline (DESIGN.md "Blocked layouts & reduced precision"):
// the blocked kernels exist only for the narrowed inference paths. Per
// output neuron the accumulation still runs in ascending input order with a
// single f32 accumulator, so any row partition of a blocked kernel is
// bit-identical to any other (the shard contract), and the result matches
// the strictly ordered scalar f32 kernel — the reassociation freedom f32 is
// allowed is *not* exercised along the reduction, only across independent
// outputs. The f64 reference path never touches this file.
//
// bf16 is a *storage* format here, not a compute format: weights are
// narrowed f32 -> bf16 with round-to-nearest-even at snapshot time and
// widened back to f32 (an exact operation — bf16 is f32 with the low 16
// mantissa bits dropped) inside the kernel, so activations, bias and every
// accumulation stay f32. This halves the weight working set the inner loop
// streams; the rounding cost is bounded by the per-topology error ledger
// (tests/precision_test.cpp, EXPERIMENTS.md).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "nn/mat.h"
#include "util/arena.h"

namespace teal::nn {

// Storage-only bfloat16: the top 16 bits of an IEEE-754 binary32.
struct bf16 {
  std::uint16_t bits = 0;
};

// A signaling-NaN bf16 pattern (exponent all ones, quiet bit clear, payload
// nonzero): widened to f32 it is a signaling NaN, so the TEAL_DEBUG_MAT
// poison contract carries through the storage narrowing.
inline constexpr bf16 kBf16SignalingNaN{0x7F81};

// f32 -> bf16 with round-to-nearest-even on the dropped 16 mantissa bits.
// NaNs map to a canonical quiet NaN (the integer rounding add would
// otherwise carry a NaN payload into the exponent, turning NaN into inf).
inline bf16 bf16_from_f32(float f) {
  std::uint32_t u = std::bit_cast<std::uint32_t>(f);
  if ((u & 0x7FFFFFFFu) > 0x7F800000u) {
    return bf16{static_cast<std::uint16_t>((u >> 16) | 0x7FC0u)};
  }
  u += 0x7FFFu + ((u >> 16) & 1u);
  return bf16{static_cast<std::uint16_t>(u >> 16)};
}

// bf16 -> f32 widening (exact).
inline float f32_from_bf16(bf16 h) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(h.bits) << 16);
}

// Lane-width-padded, column-blocked weight panels for a logical (out, in)
// weight matrix. Panel p holds outputs [p*kLanes, (p+1)*kLanes): for each
// input column i, data[(p*in + i)*kLanes + l] is w(p*kLanes + l, i), with
// padding lanes (out..panels*kLanes) zero-filled by pack_weights so they
// contribute nothing and never read uninitialized memory. Storage is
// arena-aware (util::AVec) like BasicMat, so workspace-side panels honor the
// cold-start allocation contract; model-side weight snapshots simply land on
// the heap when no arena is bound.
template <typename W>
class PackedMat {
 public:
  static constexpr int kLanes = 8;  // panel width: one 256-bit vector of f32

  PackedMat() = default;

  int rows() const { return out_; }   // logical output count
  int cols() const { return in_; }    // logical input count
  int panels() const { return panels_; }
  bool empty() const { return v_.empty(); }

  // Reshapes for an (out, in) logical matrix. Element values are unspecified
  // afterwards (pack_weights overwrites everything, padding included); under
  // TEAL_DEBUG_MAT the buffer is poison-filled exactly like BasicMat::resize,
  // so a kernel run against an unpacked panel fails the suite loudly.
  void resize(int out, int in) {
    if (out < 0 || in < 0) throw std::invalid_argument("PackedMat: negative shape");
    out_ = out;
    in_ = in;
    panels_ = (out + kLanes - 1) / kLanes;
    v_.resize(static_cast<std::size_t>(panels_) * static_cast<std::size_t>(in) * kLanes);
#ifdef TEAL_DEBUG_MAT
    poison();
#endif
  }

  // Debug poison-fill (what resize() applies under TEAL_DEBUG_MAT).
  void poison() {
    for (W& w : v_) w = poison_value();
  }

  const W* panel_ptr(int p) const {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }
  W* panel_ptr(int p) {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }

  util::AVec<W>& data() { return v_; }
  const util::AVec<W>& data() const { return v_; }

 private:
  static W poison_value() {
    if constexpr (std::is_same_v<W, bf16>) {
      return kBf16SignalingNaN;
    } else {
      return std::numeric_limits<W>::signaling_NaN();
    }
  }

  int out_ = 0, in_ = 0, panels_ = 0;
  util::AVec<W> v_;
};

using PackedMatF = PackedMat<float>;
using PackedMatBf16 = PackedMat<bf16>;

// Packs a row-major (out, in) f32 weight matrix into panels, resizing `dst`
// and zero-filling the padding lanes. The bf16 overload narrows each weight
// with round-to-nearest-even (bf16_from_f32) as it packs.
void pack_weights(const MatF& w, PackedMatF& dst);
void pack_weights(const MatF& w, PackedMatBf16& dst);

// Blocked batched linear forward over rows [row_begin, row_end):
// y(r, .) = x(r, .) * Wᵀ + b, with W read from lane-blocked panels. `y` must
// be pre-sized to (x.rows(), w.rows()) by the caller (same contract as
// linear_forward_rows — resize must never run under a shard fan-out). Per
// row and output the arithmetic is identical regardless of the row range, so
// any row partition produces bit-identical results.
template <typename W>
void linear_forward_rows_blocked(const MatF& x, const PackedMat<W>& w,
                                 std::span<const float> b, MatF& y, int row_begin,
                                 int row_end);

// Convenience full-matrix variant: resizes `y` and runs every row (single
// caller thread — the solve path always enters through the rows variant
// under its own shard plan).
template <typename W>
void linear_forward_blocked(const MatF& x, const PackedMat<W>& w, std::span<const float> b,
                            MatF& y);

}  // namespace teal::nn
