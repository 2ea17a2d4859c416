#include "nn/module.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace teal::nn {

void xavier_init(Mat& w, util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
  for (double& x : w.data()) x = rng.uniform(-bound, bound);
}

Linear::Linear(int in, int out, util::Rng& rng) : weight_(out, in), bias_(1, out) {
  xavier_init(weight_.w, rng);
}

void Linear::forward(const Mat& x, Mat& y) const {
  linear_forward(x, weight_.w, bias_.w.data(), y);
}

void Linear::forward_rows(const Mat& x, Mat& y, int row_begin, int row_end) const {
  linear_forward_rows(x, weight_.w, bias_.w.data(), y, row_begin, row_end);
}

void Linear::backward_acc(const Mat& x, const Mat& gy, Mat& gx, Mat& gw, Mat& gb) const {
  linear_backward(x, weight_.w, gy, gx, gw, gb.data());
}

std::vector<Mat*> grad_targets(const std::vector<Param*>& params) {
  std::vector<Mat*> out;
  out.reserve(params.size());
  for (Param* p : params) out.push_back(&p->g);
  return out;
}

void GradAccum::prepare(const std::vector<Param*>& params) {
  if (g_.size() == params.size()) {
    bool match = true;
    for (std::size_t i = 0; i < g_.size(); ++i) {
      match = match && g_[i].same_shape(params[i]->g);
    }
    if (match) return;
  }
  g_.resize(params.size());
  refs_.resize(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    g_[i].resize(params[i]->g.rows(), params[i]->g.cols());
    g_[i].zero();
    refs_[i] = &g_[i];
  }
}

void GradAccum::zero() {
  for (Mat& m : g_) m.zero();
}

void GradAccum::reduce_into(const std::vector<Param*>& params) const {
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& dst = params[i]->g.data();
    const auto& src = g_[i].data();
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] += src[j];
  }
}

LinearF32 Linear::snapshot_f32() const {
  LinearF32 s;
  s.w.resize(weight_.w.rows(), weight_.w.cols());
  for (std::size_t i = 0; i < weight_.w.size(); ++i) {
    s.w.data()[i] = static_cast<float>(weight_.w.data()[i]);
  }
  s.b.resize(bias_.w.data().size());
  for (std::size_t i = 0; i < s.b.size(); ++i) {
    s.b[i] = static_cast<float>(bias_.w.data()[i]);
  }
  return s;
}

LinearPackedF32 Linear::snapshot_packed_f32() const {
  // Pack via the row-major f32 snapshot so both narrowed layouts are built
  // from identical float weights.
  LinearF32 flat = snapshot_f32();
  LinearPackedF32 s;
  pack_weights(flat.w, s.w);
  s.b = std::move(flat.b);
  return s;
}

LinearBf16 Linear::snapshot_bf16() const {
  LinearF32 flat = snapshot_f32();
  LinearBf16 s;
  pack_weights(flat.w, s.w);  // bf16 overload rounds-to-nearest-even per weight
  s.b = std::move(flat.b);
  return s;
}

Adam::Adam(std::vector<Param*> params, double lr_in, double beta1, double beta2, double eps)
    : lr(lr_in), params_(std::move(params)), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->w.rows(), p->w.cols());
    v_.emplace_back(p->w.rows(), p->w.cols());
  }
}

void Adam::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

void Adam::clip_grad_norm(double max_norm) {
  if (max_norm <= 0.0) return;
  double sq = 0.0;
  for (Param* p : params_) {
    for (double g : p->g.data()) sq += g * g;
  }
  double norm = std::sqrt(sq);
  if (norm <= max_norm) return;
  double scale = max_norm / norm;
  for (Param* p : params_) {
    for (double& g : p->g.data()) g *= scale;
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto& w = params_[i]->w.data();
    auto& g = params_[i]->g.data();
    auto& m = m_[i].data();
    auto& v = v_[i].data();
    for (std::size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
      double mh = m[j] / bc1;
      double vh = v[j] / bc2;
      w[j] -= lr * mh / (std::sqrt(vh) + eps_);
    }
  }
}

namespace {

constexpr std::uint64_t kMagic = 0x5445414C4D444Cull;  // "TEALMDL"

// FNV-1a, 64-bit: the trailer's checksum over every payload byte.
std::uint64_t fnv1a64(const void* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<const unsigned char*>(data)[i]) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

// The file is a sequence of 64-bit words. Payload: magic, count, then rows,
// cols and the values per parameter. Trailer: the payload's byte length and
// its checksum.
void save_params(const std::string& path, const std::vector<Param*>& params) {
  std::vector<std::uint64_t> words{kMagic, params.size()};
  for (const Param* p : params) {
    words.push_back(static_cast<std::uint64_t>(p->w.rows()));
    words.push_back(static_cast<std::uint64_t>(p->w.cols()));
    words.resize(words.size() + p->w.size());
    std::memcpy(words.data() + words.size() - p->w.size(), p->w.data().data(),
                p->w.size() * sizeof(double));
  }
  const std::size_t payload = words.size() * sizeof(std::uint64_t);
  words.push_back(payload);
  words.push_back(fnv1a64(words.data(), payload));

  // Write-then-rename: a crash or a full disk mid-write never leaves a
  // partial cache under `path`. The temp file sits in the same directory, so
  // the rename stays on one filesystem (atomic on POSIX).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("save_params: cannot open " + tmp);
    f.write(reinterpret_cast<const char*>(words.data()),
            static_cast<std::streamsize>(words.size() * sizeof(std::uint64_t)));
    f.close();
    if (!f) {
      std::remove(tmp.c_str());
      throw std::runtime_error("save_params: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_params: cannot rename " + tmp + " to " + path);
  }
}

bool load_params(const std::string& path, const std::vector<Param*>& params) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return false;
  const auto size = static_cast<std::size_t>(f.tellg());
  if (size % sizeof(std::uint64_t) != 0 || size < 4 * sizeof(std::uint64_t)) return false;
  std::vector<std::uint64_t> words(size / sizeof(std::uint64_t));
  f.seekg(0);
  if (!f.read(reinterpret_cast<char*>(words.data()), static_cast<std::streamsize>(size))) {
    return false;
  }
  // Check the trailer, every shape and the exact length before touching any
  // parameter: a truncated, padded, bit-flipped, mis-shaped or pre-trailer
  // file returns false with the parameters exactly as they were.
  const std::size_t n = words.size() - 2;  // payload words
  if (words[n] != n * sizeof(std::uint64_t) ||
      words[n + 1] != fnv1a64(words.data(), n * sizeof(std::uint64_t)) ||
      words[0] != kMagic || words[1] != params.size()) {
    return false;
  }
  std::vector<std::size_t> offsets;
  std::size_t at = 2;
  for (const Param* p : params) {
    if (n - at < 2 || words[at] != static_cast<std::uint64_t>(p->w.rows()) ||
        words[at + 1] != static_cast<std::uint64_t>(p->w.cols()) ||
        n - at - 2 < p->w.size()) {
      return false;
    }
    offsets.push_back(at + 2);
    at += 2 + p->w.size();
  }
  if (at != n) return false;  // words between the last matrix and the trailer
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->w.data().data(), words.data() + offsets[i],
                params[i]->w.size() * sizeof(double));
  }
  return true;
}

}  // namespace teal::nn
