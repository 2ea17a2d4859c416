// Unit tests for the NN substrate, including finite-difference gradient
// checks of every layer primitive.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>

#include "nn/mat.h"
#include "nn/module.h"
#include "nn/packed.h"
#include "util/rng.h"

namespace teal {
namespace {

// Finite-difference gradient check helper: perturbs each entry of `param`,
// evaluates the scalar loss via `eval`, and compares to `analytic`.
template <typename Param, typename Analytic, typename Eval>
void check_grad(Param& param, const Analytic& analytic,
                Eval eval, double eps = 1e-6, double tol = 1e-5) {
  ASSERT_EQ(param.size(), analytic.size());
  for (std::size_t i = 0; i < param.size(); ++i) {
    double orig = param[i];
    param[i] = orig + eps;
    double up = eval();
    param[i] = orig - eps;
    double down = eval();
    param[i] = orig;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
  }
}

TEST(Mat, FloatInstantiationShapeAndAccess) {
  nn::MatF m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
  m.zero();
  EXPECT_FLOAT_EQ(m.at(1, 2), 0.0f);
}

TEST(Mat, FloatLinearForwardKnownValues) {
  nn::MatF x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  nn::MatF w(1, 2);
  w.at(0, 0) = 3.0f;
  w.at(0, 1) = 4.0f;
  nn::MatF y;
  nn::linear_forward(x, w, std::vector<float>{0.5f}, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.5f);
}

TEST(Mat, FloatSoftmaxRowsSumToOne) {
  nn::MatF logits(1, 3);
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 2.0f;
  logits.at(0, 2) = 3.0f;
  nn::MatF empty_mask, probs;
  nn::softmax_rows(logits, empty_mask, probs);
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1) + probs.at(0, 2), 1.0f, 1e-6f);
  EXPECT_GT(probs.at(0, 2), probs.at(0, 0));
}

TEST(Mat, ResizePoisonContractUnderDebugMat) {
  // Under TEAL_DEBUG_MAT every resize — including a warm same-shape one —
  // poison-fills with signaling NaNs, enforcing the documented "element
  // values are unspecified" contract. Without the option the contract is
  // still "unspecified", so this test only asserts the poison when the
  // build enables it.
  if (!nn::debug_mat_enabled()) {
    GTEST_SKIP() << "TEAL_DEBUG_MAT is off in this build";
  }
  nn::Mat m(2, 2, 1.0);
  m.resize(2, 2);  // same shape: still poisons
  for (double v : m.data()) EXPECT_TRUE(std::isnan(v));
  nn::MatF f(1, 3, 1.0f);
  f.resize(2, 3);
  for (float v : f.data()) EXPECT_TRUE(std::isnan(v));
}

TEST(Mat, NegativeShapeThrowsInvalidArgument) {
  // The documented exception, before any size_t wrap-around reaches the
  // vector (a -1 dimension would otherwise request ~1e19 elements).
  EXPECT_THROW(nn::Mat(-1, 3), std::invalid_argument);
  EXPECT_THROW(nn::Mat(3, -1), std::invalid_argument);
  EXPECT_THROW(nn::MatF(-1, -1), std::invalid_argument);
  nn::Mat m(2, 2);
  EXPECT_THROW(m.resize(-1, 2), std::invalid_argument);
  EXPECT_EQ(m.rows(), 2);  // failed resize leaves the shape untouched
}

TEST(Mat, PoisonFillsSignalingNaNs) {
  nn::Mat m(2, 3, 1.0);
  m.poison();
  for (double v : m.data()) EXPECT_TRUE(std::isnan(v));
}

TEST(LinearF32, SnapshotMatchesDoubleForward) {
  util::Rng rng(15);
  nn::Linear lin(6, 4, rng);
  nn::Mat x(3, 6);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat y;
  lin.forward(x, y);

  nn::LinearF32 snap = lin.snapshot_f32();
  EXPECT_EQ(snap.in_features(), 6);
  EXPECT_EQ(snap.out_features(), 4);
  nn::MatF xf(3, 6), yf(3, 4);
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    xf.data()[i] = static_cast<float>(x.data()[i]);
  }
  snap.forward_rows(xf, yf, 0, 3);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(yf.data()[i]), y.data()[i], 1e-5);
  }
}

// ---- bf16 storage type ---------------------------------------------------

TEST(Bf16, WidenIsExactRoundTrip) {
  // bf16 is f32 with the low mantissa bits dropped, so widening a bf16 and
  // re-narrowing it must be the identity (every bf16 value is exactly
  // representable in f32).
  for (std::uint32_t hi : {0x0000u, 0x3F80u, 0xC2C8u, 0x7F80u, 0x0001u, 0x8000u}) {
    nn::bf16 h{static_cast<std::uint16_t>(hi)};
    EXPECT_EQ(nn::bf16_from_f32(nn::f32_from_bf16(h)).bits, h.bits) << hi;
  }
  EXPECT_FLOAT_EQ(nn::f32_from_bf16(nn::bf16{0x3F80}), 1.0f);
  EXPECT_FLOAT_EQ(nn::f32_from_bf16(nn::bf16{0xC2C8}), -100.0f);
}

TEST(Bf16, RoundsToNearestEven) {
  // 1.0f + one ulp-of-bf16/2 sits exactly between two bf16 values: RNE must
  // pick the even low bit. 0x3F808000 is the midpoint between 0x3F80 (even)
  // and 0x3F81 (odd) -> rounds down; 0x3F818000 is the midpoint between
  // 0x3F81 and 0x3F82 -> rounds up to the even 0x3F82.
  EXPECT_EQ(nn::bf16_from_f32(std::bit_cast<float>(0x3F808000u)).bits, 0x3F80);
  EXPECT_EQ(nn::bf16_from_f32(std::bit_cast<float>(0x3F818000u)).bits, 0x3F82);
  // Just past the midpoint rounds away.
  EXPECT_EQ(nn::bf16_from_f32(std::bit_cast<float>(0x3F808001u)).bits, 0x3F81);
  // Relative rounding error is bounded by 2^-8 (8-bit mantissa).
  util::Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.normal());
    const float w = nn::f32_from_bf16(nn::bf16_from_f32(v));
    EXPECT_LE(std::abs(w - v), std::abs(v) * (1.0f / 256.0f) + 1e-30f) << v;
  }
}

TEST(Bf16, NaNStaysNaNAndInfStaysInf) {
  // The RNE integer add must not carry a NaN payload into the exponent
  // (which would turn NaN into inf) and must keep infinities exact.
  const float qnan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(nn::f32_from_bf16(nn::bf16_from_f32(qnan))));
  const float snan_payload = std::bit_cast<float>(0x7F800001u);
  EXPECT_TRUE(std::isnan(nn::f32_from_bf16(nn::bf16_from_f32(snan_payload))));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(nn::f32_from_bf16(nn::bf16_from_f32(inf)), inf);
  EXPECT_EQ(nn::f32_from_bf16(nn::bf16_from_f32(-inf)), -inf);
  // The poison pattern widens to a NaN, as the TEAL_DEBUG_MAT contract needs.
  EXPECT_TRUE(std::isnan(nn::f32_from_bf16(nn::kBf16SignalingNaN)));
}

// ---- blocked panels ------------------------------------------------------

TEST(PackedMat, PackZeroesPaddingLanes) {
  // out = 10 needs two 8-lane panels; lanes 10..15 are padding and must pack
  // to exact zero so they contribute nothing downstream.
  util::Rng rng(41);
  const int out = 10, in = 5;
  nn::MatF w(out, in);
  for (auto& v : w.data()) v = static_cast<float>(rng.normal());
  nn::PackedMatF p;
  nn::pack_weights(w, p);
  ASSERT_EQ(p.rows(), out);
  ASSERT_EQ(p.cols(), in);
  ASSERT_EQ(p.panels(), 2);
  constexpr int L = nn::PackedMatF::kLanes;
  for (int pi = 0; pi < p.panels(); ++pi) {
    const float* panel = p.panel_ptr(pi);
    for (int i = 0; i < in; ++i) {
      for (int l = 0; l < L; ++l) {
        const int o = pi * L + l;
        const float got = panel[i * L + l];
        if (o < out) {
          EXPECT_EQ(got, w.at(o, i));
        } else {
          EXPECT_EQ(got, 0.0f) << "padding lane must be zero";
        }
      }
    }
  }
  // Same layout for the bf16 packing, with RNE narrowing on the live lanes.
  nn::PackedMatBf16 pb;
  nn::pack_weights(w, pb);
  for (int i = 0; i < in; ++i) {
    EXPECT_EQ(pb.panel_ptr(0)[i * L].bits, nn::bf16_from_f32(w.at(0, i)).bits);
    EXPECT_EQ(pb.panel_ptr(1)[i * L + (out % L)].bits, 0) << "bf16 padding lane";
  }
}

TEST(PackedMat, ResizePoisonContractUnderDebugMat) {
  if (!nn::debug_mat_enabled()) {
    GTEST_SKIP() << "TEAL_DEBUG_MAT is off in this build";
  }
  nn::PackedMatF p;
  p.resize(9, 3);
  for (float v : p.data()) EXPECT_TRUE(std::isnan(v));
  nn::PackedMatBf16 pb;
  pb.resize(4, 2);
  for (nn::bf16 h : pb.data()) EXPECT_TRUE(std::isnan(nn::f32_from_bf16(h)));
}

TEST(PackedMat, BlockedForwardMatchesUnblockedWithinUlps) {
  // The blocked kernel keeps single-accumulator ascending-input order per
  // output, so it computes the same reduction as the row-major f32 kernel.
  // Equality is to a few ulps, not bits: the runtime-dispatched clones may
  // contract mul+add into FMA, which drops one intermediate rounding.
  util::Rng rng(43);
  const int n = 65, in = 24, out = 24;  // non-multiple of the row block
  nn::MatF x(n, in), w(out, in);
  std::vector<float> b(out);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : w.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  nn::MatF ref, y;
  nn::linear_forward(x, w, b, ref);
  nn::PackedMatF p;
  nn::pack_weights(w, p);
  nn::linear_forward_blocked(x, p, b, y);
  ASSERT_EQ(y.rows(), n);
  ASSERT_EQ(y.cols(), out);
  for (std::size_t i = 0; i < ref.data().size(); ++i) {
    EXPECT_NEAR(y.data()[i], ref.data()[i], 1e-4f * std::max(1.0f, std::abs(ref.data()[i])))
        << "i=" << i;
  }
}

TEST(PackedMat, BlockedRowPartitionIsBitIdentical) {
  // The shard contract on the blocked kernel: any row partition — including
  // splits that break up the 4-row register blocks — produces the same bytes
  // as the full-range run, in f32 and in bf16 storage.
  util::Rng rng(47);
  const int n = 101, in = 16, out = 12;
  nn::MatF x(n, in), w(out, in);
  std::vector<float> b(out);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : w.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  nn::PackedMatF pf;
  nn::pack_weights(w, pf);
  nn::PackedMatBf16 ph;
  nn::pack_weights(w, ph);

  nn::MatF full(n, out), ranged(n, out);
  nn::linear_forward_rows_blocked(x, pf, b, full, 0, n);
  nn::linear_forward_rows_blocked(x, pf, b, ranged, 0, 2);   // mid-block split
  nn::linear_forward_rows_blocked(x, pf, b, ranged, 2, 37);
  nn::linear_forward_rows_blocked(x, pf, b, ranged, 37, n);
  EXPECT_EQ(0, std::memcmp(full.data().data(), ranged.data().data(),
                           full.data().size() * sizeof(float)));

  nn::MatF full_h(n, out), ranged_h(n, out);
  nn::linear_forward_rows_blocked(x, ph, b, full_h, 0, n);
  nn::linear_forward_rows_blocked(x, ph, b, ranged_h, 0, 51);
  nn::linear_forward_rows_blocked(x, ph, b, ranged_h, 51, n);
  EXPECT_EQ(0, std::memcmp(full_h.data().data(), ranged_h.data().data(),
                           full_h.data().size() * sizeof(float)));
}

TEST(PackedMat, BlockedForwardValidatesShapes) {
  nn::MatF x(4, 3), y(4, 2);
  nn::MatF w(2, 3);
  nn::PackedMatF p;
  nn::pack_weights(w, p);
  std::vector<float> b(2);
  EXPECT_NO_THROW(nn::linear_forward_rows_blocked(x, p, b, y, 0, 4));
  nn::MatF bad_x(4, 5);
  EXPECT_THROW(nn::linear_forward_rows_blocked(bad_x, p, b, y, 0, 4),
               std::invalid_argument);
  std::vector<float> bad_b(3);
  EXPECT_THROW(nn::linear_forward_rows_blocked(x, p, bad_b, y, 0, 4),
               std::invalid_argument);
  nn::MatF bad_y(4, 3);
  EXPECT_THROW(nn::linear_forward_rows_blocked(x, p, b, bad_y, 0, 4),
               std::invalid_argument);
  EXPECT_THROW(nn::PackedMatF{}.resize(-1, 2), std::invalid_argument);
}

TEST(PackedLinear, SnapshotsMatchDoubleForward) {
  util::Rng rng(53);
  nn::Linear lin(6, 10, rng);  // out = 10: padded second panel in play
  nn::Mat x(5, 6);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat y;
  lin.forward(x, y);
  nn::MatF xf(5, 6), yf(5, 10);
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    xf.data()[i] = static_cast<float>(x.data()[i]);
  }

  nn::LinearPackedF32 snap = lin.snapshot_packed_f32();
  snap.forward_rows(xf, yf, 0, 5);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(yf.data()[i]), y.data()[i], 1e-5);
  }

  // The bf16 snapshot rounds each weight to 8 mantissa bits; with in = 6 the
  // accumulated relative error stays well under 2^-7.
  nn::LinearBf16 half = lin.snapshot_bf16();
  nn::MatF yh(5, 10);
  half.forward_rows(xf, yh, 0, 5);
  for (std::size_t i = 0; i < y.data().size(); ++i) {
    EXPECT_NEAR(static_cast<double>(yh.data()[i]), y.data()[i],
                1e-1 * std::max(1.0, std::abs(y.data()[i])));
    EXPECT_NE(yh.data()[i], 0.0f);
  }
}

TEST(Mat, ShapeAndAccess) {
  nn::Mat m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.at(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.5);
  m.zero();
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
}

TEST(Mat, LinearForwardKnownValues) {
  nn::Mat x(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  nn::Mat w(1, 2);  // one output
  w.at(0, 0) = 3.0;
  w.at(0, 1) = 4.0;
  nn::Mat y;
  const double bias[] = {0.5};
  nn::linear_forward(x, w, bias, y);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 11.5);
}

TEST(Mat, LinearGradCheck) {
  util::Rng rng(3);
  const int n = 3, in = 4, out = 2;
  nn::Mat x(n, in), w(out, in);
  std::vector<double> b(out);
  for (auto& v : x.data()) v = rng.normal();
  for (auto& v : w.data()) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  // Loss = sum of y entries weighted by fixed random coefficients.
  nn::Mat coef(n, out);
  for (auto& v : coef.data()) v = rng.normal();

  auto eval = [&] {
    nn::Mat y;
    nn::linear_forward(x, w, b, y);
    double s = 0;
    for (std::size_t i = 0; i < y.data().size(); ++i) s += y.data()[i] * coef.data()[i];
    return s;
  };
  nn::Mat gx, gw(out, in);
  std::vector<double> gb(out, 0.0);
  nn::linear_backward(x, w, coef, gx, gw, gb);
  check_grad(w.data(), gw.data(), eval);
  check_grad(x.data(), gx.data(), eval);
  check_grad(b, gb, eval);
}

TEST(Mat, LeakyReluGradCheck) {
  util::Rng rng(5);
  nn::Mat x(2, 5);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat coef(2, 5);
  for (auto& v : coef.data()) v = rng.normal();
  auto eval = [&] {
    nn::Mat y;
    nn::leaky_relu_forward(x, y, 0.01);
    double s = 0;
    for (std::size_t i = 0; i < y.data().size(); ++i) s += y.data()[i] * coef.data()[i];
    return s;
  };
  nn::Mat gx;
  nn::leaky_relu_backward(x, coef, gx, 0.01);
  check_grad(x.data(), gx.data(), eval);
}

TEST(Mat, SoftmaxRowsSumToOneAndMask) {
  nn::Mat logits(2, 3);
  logits.at(0, 0) = 1.0;
  logits.at(0, 1) = 2.0;
  logits.at(0, 2) = 3.0;
  logits.at(1, 0) = 0.0;
  logits.at(1, 1) = 5.0;
  logits.at(1, 2) = -1.0;
  nn::Mat mask(2, 3, 1.0);
  mask.at(1, 1) = 0.0;  // mask out the largest logit in row 1
  nn::Mat probs;
  nn::softmax_rows(logits, mask, probs);
  EXPECT_NEAR(probs.at(0, 0) + probs.at(0, 1) + probs.at(0, 2), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(probs.at(1, 1), 0.0);
  EXPECT_NEAR(probs.at(1, 0) + probs.at(1, 2), 1.0, 1e-12);
  EXPECT_GT(probs.at(0, 2), probs.at(0, 0));
}

TEST(Mat, SoftmaxGradCheck) {
  util::Rng rng(7);
  nn::Mat logits(3, 4);
  for (auto& v : logits.data()) v = rng.normal();
  nn::Mat coef(3, 4);
  for (auto& v : coef.data()) v = rng.normal();
  nn::Mat empty_mask;
  auto eval = [&] {
    nn::Mat p;
    nn::softmax_rows(logits, empty_mask, p);
    double s = 0;
    for (std::size_t i = 0; i < p.data().size(); ++i) s += p.data()[i] * coef.data()[i];
    return s;
  };
  nn::Mat p, gx;
  nn::softmax_rows(logits, empty_mask, p);
  nn::softmax_rows_backward(p, coef, gx);
  check_grad(logits.data(), gx.data(), eval);
}

TEST(Linear, ModuleGradCheck) {
  util::Rng rng(9);
  nn::Linear lin(3, 2, rng);
  nn::Mat x(4, 3);
  for (auto& v : x.data()) v = rng.normal();
  nn::Mat coef(4, 2);
  for (auto& v : coef.data()) v = rng.normal();
  auto eval = [&] {
    nn::Mat y;
    lin.forward(x, y);
    double s = 0;
    for (std::size_t i = 0; i < y.data().size(); ++i) s += y.data()[i] * coef.data()[i];
    return s;
  };
  auto params = lin.params();
  for (auto* p : params) p->zero_grad();
  nn::Mat gx;
  lin.backward_acc(x, coef, gx, params[0]->g, params[1]->g);
  check_grad(params[0]->w.data(), params[0]->g.data(), eval);
  check_grad(params[1]->w.data(), params[1]->g.data(), eval);
  check_grad(x.data(), gx.data(), eval);
}

TEST(Adam, MinimizesQuadratic) {
  // One 1x1 parameter; loss (w - 3)^2. Adam should reach w ~ 3.
  nn::Param w(1, 1);
  w.w.at(0, 0) = -5.0;
  nn::Adam adam({&w}, 0.1);
  for (int i = 0; i < 500; ++i) {
    adam.zero_grad();
    w.g.at(0, 0) = 2.0 * (w.w.at(0, 0) - 3.0);
    adam.step();
  }
  EXPECT_NEAR(w.w.at(0, 0), 3.0, 0.05);
}

TEST(Adam, GradClipBoundsNorm) {
  nn::Param w(1, 2);
  w.g.at(0, 0) = 30.0;
  w.g.at(0, 1) = 40.0;  // norm 50
  nn::Adam adam({&w}, 0.1);
  adam.clip_grad_norm(5.0);
  double norm = std::hypot(w.g.at(0, 0), w.g.at(0, 1));
  EXPECT_NEAR(norm, 5.0, 1e-9);
}

TEST(Params, SaveLoadRoundTrip) {
  util::Rng rng(11);
  nn::Param a(2, 3), b(1, 4);
  for (auto& v : a.w.data()) v = rng.normal();
  for (auto& v : b.w.data()) v = rng.normal();
  auto path = (std::filesystem::temp_directory_path() / "teal_params_test.bin").string();
  nn::save_params(path, {&a, &b});

  nn::Param a2(2, 3), b2(1, 4);
  ASSERT_TRUE(nn::load_params(path, {&a2, &b2}));
  for (std::size_t i = 0; i < a.w.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.w.data()[i], a.w.data()[i]);
  }
  // Shape mismatch is rejected.
  nn::Param wrong(3, 2);
  EXPECT_FALSE(nn::load_params(path, {&wrong, &b2}));
  std::filesystem::remove(path);
}

TEST(Params, LoadMissingFileFails) {
  nn::Param a(1, 1);
  EXPECT_FALSE(nn::load_params("/nonexistent/teal.bin", {&a}));
}

TEST(Xavier, BoundsScaleWithFanInOut) {
  util::Rng rng(13);
  nn::Mat w(100, 100);
  nn::xavier_init(w, rng);
  double bound = std::sqrt(6.0 / 200.0);
  for (double v : w.data()) {
    EXPECT_GE(v, -bound - 1e-12);
    EXPECT_LE(v, bound + 1e-12);
  }
}

}  // namespace
}  // namespace teal
