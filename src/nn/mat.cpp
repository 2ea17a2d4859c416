// Kernel implementations. Precision discipline:
//  * The linear kernels are f64 only and strictly ordered: identical to the
//    seed implementation under every build flag (the teal library compiles
//    with -ffp-contract=off, so no mul+add is ever fused into an FMA).
//  * The elementwise kernels serve both element types. TEAL_SIMD may
//    vectorize them, which is order-independent per element and so still
//    bit-identical.
#include "nn/mat.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>

#include "util/thread_pool.h"

#if defined(TEAL_SIMD)
#define TEAL_PRAGMA(x) _Pragma(#x)
#define TEAL_SIMD_LOOP TEAL_PRAGMA(omp simd)
#else
#define TEAL_SIMD_LOOP
#endif

namespace teal::nn {

bool simd_enabled() {
#if defined(TEAL_SIMD)
  return true;
#else
  return false;
#endif
}

bool debug_mat_enabled() {
#ifdef TEAL_DEBUG_MAT
  return true;
#else
  return false;
#endif
}

namespace {
// Rows below this threshold are processed inline; above it, through the pool.
constexpr int kParallelRows = 512;

template <typename F>
void for_rows(int n, F&& body) {
  if (n >= kParallelRows) {
    util::ThreadPool::global().parallel_chunks(
        static_cast<std::size_t>(n), [&](std::size_t b, std::size_t e) {
          for (std::size_t r = b; r < e; ++r) body(static_cast<int>(r));
        });
  } else {
    for (int r = 0; r < n; ++r) body(r);
  }
}

// The linear kernels fix the input width at compile time for the widths the
// default models build: FlowGNN edge/path layers (2d for d = 1..6), DNN
// layers (k*d for k = 4) and the 24-wide policy. With W known the compiler
// unrolls the inner loops and keeps a row's accumulators in registers, which
// is where the time of these tiny layers goes. Every other width runs W = 0,
// the same body with the width read at runtime. The arithmetic is identical
// for every W.
constexpr int kWidths[] = {2, 4, 6, 8, 10, 12, 16, 20, 24};

template <typename F, std::size_t... I>
void dispatch_width(int in, F&& body, std::index_sequence<I...>) {
  const bool fixed = ((in == kWidths[I] &&
                       (body(std::integral_constant<int, kWidths[I]>{}), true)) ||
                      ...);
  if (!fixed) body(std::integral_constant<int, 0>{});
}

// Calls body(std::integral_constant<int, W>{}) with W = in when the table
// holds it, else W = 0.
template <typename F>
void with_width(int in, F&& body) {
  dispatch_width(in, body, std::make_index_sequence<std::size(kWidths)>{});
}

// Forward row body: per output, seed with the bias and add the inputs in
// ascending order.
template <int W>
inline void linear_row(const double* xr, const Mat& w, const double* b,
                       double* __restrict yr, int in) {
  const int n = W > 0 ? W : in;
  for (int o = 0; o < w.rows(); ++o) {
    const double* wr = w.row_ptr(o);
    double acc = b[o];
    for (int i = 0; i < n; ++i) acc += xr[i] * wr[i];
    yr[o] = acc;
  }
}

// Input-grad row body: gx(r, i) = sum over o ascending of gy(r, o) w(o, i),
// from +0.0 (what a zeroed gx held), accumulated in registers when W > 0.
// The register copies are element loops, not std::copy: a memcpy would put
// the accumulators on the stack and stall on store forwarding.
template <int W>
inline void linear_grad_input_row(const double* gyr, const Mat& w, double* gxr, int in) {
  const int n = W > 0 ? W : in;
  double regs[W > 0 ? W : 1];
  double* acc = W > 0 ? regs : gxr;
  for (int i = 0; i < n; ++i) acc[i] = 0.0;
  for (int o = 0; o < w.rows(); ++o) {
    const double g = gyr[o];
    if (g == 0.0) continue;
    const double* wr = w.row_ptr(o);
    for (int i = 0; i < n; ++i) acc[i] += g * wr[i];
  }
  if constexpr (W > 0) {
    for (int i = 0; i < n; ++i) gxr[i] = acc[i];
  }
}

// Rows per chunk of the parameter-grad pass: a chunk's x and gy rows stay in
// L1 while every output walks them.
constexpr int kGradRowChunk = 64;

// Parameter grads over rows [r0, r1), output-major: gw(o, .) and gb(o) stay
// in registers (W > 0) across the chunk and still add over r ascending.
template <int W>
inline void linear_grad_params_chunk(const Mat& x, const Mat& gy, Mat& gw,
                                     std::span<double> gb, int r0, int r1) {
  const int n = W > 0 ? W : x.cols();
  for (int o = 0; o < gw.rows(); ++o) {
    double* gwr = gw.row_ptr(o);
    double regs[W > 0 ? W : 1];
    double* acc = W > 0 ? regs : gwr;
    if constexpr (W > 0) {
      for (int i = 0; i < n; ++i) acc[i] = gwr[i];
    }
    double gbo = gb[static_cast<std::size_t>(o)];
    for (int r = r0; r < r1; ++r) {
      const double g = gy.row_ptr(r)[o];
      if (g == 0.0) continue;
      const double* xr = x.row_ptr(r);
      for (int i = 0; i < n; ++i) acc[i] += g * xr[i];
      gbo += g;
    }
    if constexpr (W > 0) {
      for (int i = 0; i < n; ++i) gwr[i] = acc[i];
    }
    gb[static_cast<std::size_t>(o)] = gbo;
  }
}

// x (n, in) against w (out, in), and a bias (or bias grad) of out entries.
void check_linear(const Mat& x, const Mat& w, std::size_t b_size, const char* what) {
  if (w.cols() != x.cols()) throw std::invalid_argument(std::string(what) + ": shape mismatch");
  if (b_size != static_cast<std::size_t>(w.rows())) {
    throw std::invalid_argument(std::string(what) + ": bias");
  }
}
}  // namespace

void linear_forward(const Mat& x, const Mat& w, std::span<const double> b, Mat& y) {
  check_linear(x, w, b.size(), "linear_forward");
  y.resize(x.rows(), w.rows());
  with_width(x.cols(), [&](auto W) {
    for_rows(x.rows(), [&](int r) {
      linear_row<W()>(x.row_ptr(r), w, b.data(), y.row_ptr(r), x.cols());
    });
  });
}

void linear_forward_rows(const Mat& x, const Mat& w, std::span<const double> b, Mat& y,
                         int row_begin, int row_end) {
  check_linear(x, w, b.size(), "linear_forward_rows");
  if (y.rows() != x.rows() || y.cols() != w.rows()) {
    throw std::invalid_argument("linear_forward_rows: y must be pre-sized");
  }
  if (row_begin < 0 || row_end > x.rows()) {
    throw std::invalid_argument("linear_forward_rows: row range");
  }
  with_width(x.cols(), [&](auto W) {
    for (int r = row_begin; r < row_end; ++r) {
      linear_row<W()>(x.row_ptr(r), w, b.data(), y.row_ptr(r), x.cols());
    }
  });
}

void linear_backward(const Mat& x, const Mat& w, const Mat& gy, Mat& gx, Mat& gw,
                     std::span<double> gb) {
  check_linear(x, w, gb.size(), "linear_backward");
  const int n = x.rows(), in = x.cols(), out = w.rows();
  if (gy.rows() != n || gy.cols() != out) {
    throw std::invalid_argument("linear_backward: gy shape");
  }
  if (!gw.same_shape(w)) throw std::invalid_argument("linear_backward: gw shape");
  gx.resize(n, in);
  with_width(in, [&](auto W) {
    for_rows(n, [&](int r) { linear_grad_input_row<W()>(gy.row_ptr(r), w, gx.row_ptr(r), in); });
    // Parameter grads accumulate sequentially (they are small: out x in).
    for (int r0 = 0; r0 < n; r0 += kGradRowChunk) {
      linear_grad_params_chunk<W()>(x, gy, gw, gb, r0, std::min(n, r0 + kGradRowChunk));
    }
  });
}

template <typename T>
void leaky_relu_forward(const BasicMat<T>& x, BasicMat<T>& y, double alpha) {
  y.resize(x.rows(), x.cols());
  const T a = static_cast<T>(alpha);
  const T* xs = x.data().data();
  T* ys = y.data().data();
  const std::size_t sz = x.size();
  // Elementwise: vector lanes never reassociate anything, so the pragma is
  // bit-safe for both element types.
  TEAL_SIMD_LOOP
  for (std::size_t i = 0; i < sz; ++i) {
    ys[i] = xs[i] >= T(0) ? xs[i] : a * xs[i];
  }
}

template <typename T>
void leaky_relu_forward_rows(const BasicMat<T>& x, BasicMat<T>& y, int row_begin,
                             int row_end, double alpha) {
  if (!y.same_shape(x)) throw std::invalid_argument("leaky_relu_forward_rows: y shape");
  const int c = x.cols();
  const T a = static_cast<T>(alpha);
  for (int r = row_begin; r < row_end; ++r) {
    const T* xr = x.row_ptr(r);
    T* yr = y.row_ptr(r);
    TEAL_SIMD_LOOP
    for (int i = 0; i < c; ++i) yr[i] = xr[i] >= T(0) ? xr[i] : a * xr[i];
  }
}

void leaky_relu_backward(const Mat& x_pre, const Mat& gy, Mat& gx, double alpha) {
  gx.resize(x_pre.rows(), x_pre.cols());
  const auto& xs = x_pre.data();
  const auto& gs = gy.data();
  auto& os = gx.data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os[i] = xs[i] >= 0.0 ? gs[i] : alpha * gs[i];
  }
}

namespace {
template <typename T>
inline void softmax_row(const BasicMat<T>& logits, const BasicMat<T>& mask,
                        BasicMat<T>& probs, bool has_mask, int r) {
  const int k = logits.cols();
  const T* lr = logits.row_ptr(r);
  T* pr = probs.row_ptr(r);
  T mx = std::numeric_limits<T>::lowest();
  for (int c = 0; c < k; ++c) {
    if (!has_mask || mask.at(r, c) != T(0)) mx = std::max(mx, lr[c]);
  }
  T denom = T(0);
  for (int c = 0; c < k; ++c) {
    if (!has_mask || mask.at(r, c) != T(0)) {
      pr[c] = std::exp(lr[c] - mx);
      denom += pr[c];
    } else {
      pr[c] = T(0);
    }
  }
  if (denom > T(0)) {
    // Elementwise normalization: per-element division is correctly rounded
    // regardless of vector width, so the pragma is bit-safe for both types.
    TEAL_SIMD_LOOP
    for (int c = 0; c < k; ++c) pr[c] /= denom;
  }
}
}  // namespace

template <typename T>
void softmax_rows(const BasicMat<T>& logits, const BasicMat<T>& mask, BasicMat<T>& probs) {
  const int n = logits.rows(), k = logits.cols();
  const bool has_mask = !mask.empty();
  probs.resize(n, k);
  for_rows(n, [&](int r) { softmax_row(logits, mask, probs, has_mask, r); });
}

template <typename T>
void softmax_rows_range(const BasicMat<T>& logits, const BasicMat<T>& mask,
                        BasicMat<T>& probs, int row_begin, int row_end) {
  if (!probs.same_shape(logits)) {
    throw std::invalid_argument("softmax_rows_range: probs must be pre-sized");
  }
  const bool has_mask = !mask.empty();
  for (int r = row_begin; r < row_end; ++r) softmax_row(logits, mask, probs, has_mask, r);
}

void softmax_rows_backward(const Mat& probs, const Mat& gy, Mat& gx) {
  const int n = probs.rows(), k = probs.cols();
  gx.resize(n, k);
  for_rows(n, [&](int r) {
    const double* pr = probs.row_ptr(r);
    const double* gr = gy.row_ptr(r);
    double* xr = gx.row_ptr(r);
    double dotpg = 0.0;
    for (int c = 0; c < k; ++c) dotpg += pr[c] * gr[c];
    for (int c = 0; c < k; ++c) xr[c] = pr[c] * (gr[c] - dotpg);
  });
}

// Explicit instantiations: the reference f64 kernels and the f32 inference
// mirrors. Declarations in mat.h resolve against these.
template void leaky_relu_forward<double>(const Mat&, Mat&, double);
template void leaky_relu_forward<float>(const MatF&, MatF&, double);
template void leaky_relu_forward_rows<double>(const Mat&, Mat&, int, int, double);
template void leaky_relu_forward_rows<float>(const MatF&, MatF&, int, int, double);
template void softmax_rows<double>(const Mat&, const Mat&, Mat&);
template void softmax_rows<float>(const MatF&, const MatF&, MatF&);
template void softmax_rows_range<double>(const Mat&, const Mat&, Mat&, int, int);
template void softmax_rows_range<float>(const MatF&, const MatF&, MatF&, int, int);

}  // namespace teal::nn
