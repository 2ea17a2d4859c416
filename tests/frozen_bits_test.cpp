// Frozen bits of the f64 training path.
//
// The other training tests compare two paths that run the same kernels
// (workspace trainer vs reference trainer, 1 vs 4 workers), so they would
// all still pass if a kernel changed the bits it computes. These constants
// pin the bits themselves: FNV-1a hashes of the logits and the accumulated
// parameter gradients of a few seeded rollouts, and of the weights after a
// short COMA* training. They hold under every build flag the f64 path
// promises bit-identity for (DESIGN.md "Precision & SIMD"), including
// -march=x86-64-v3, where a contracted mul+add would change them.
//
// A hash here changes only when f64 arithmetic changes on purpose (a new
// model, a new loss); re-record the constants in that change and say why.
// The inputs also pass through libm (Box–Muller normals in the traffic
// trace and the gradients, exp in COMA*'s softmax), so the constants assume
// glibc's x86-64 results for those calls, as the rest of the program's
// bit-identity claims do.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/coma.h"
#include "core/model.h"
#include "nn/module.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace teal {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const nn::Mat& m) {
    const auto* p = reinterpret_cast<const unsigned char*>(m.data().data());
    for (std::size_t i = 0; i < m.size() * sizeof(double); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup topo_setup(const std::string& name, int n_demands) {
  auto g = topo::make_topology(name);
  auto demands = traffic::sample_demands(g, n_demands, /*seed=*/7);
  te::Problem pb(std::move(g), std::move(demands), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 6;
  cfg.seed = 11;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.0);
  return Setup{std::move(pb), std::move(trace)};
}

struct RolloutHashes {
  std::string logits, grads;
};

// Three rollouts through forward_m/backward_m with seeded logit gradients
// (masked slots and every fifth entry exactly 0, so the kernels' zero-skip
// runs). Gradients accumulate across the rollouts into Param::g.
RolloutHashes rollout_hashes(const Setup& s, const core::TealModelConfig& cfg) {
  core::TealModel model(cfg, s.pb.k_paths(), /*seed=*/3);
  for (nn::Param* p : model.params()) p->zero_grad();
  const std::vector<double> caps = s.pb.capacities();
  Fnv logits;
  for (int t = 0; t < 3; ++t) {
    const core::ModelForward fwd = model.forward_m(s.pb, s.trace.at(t), &caps);
    logits.add(fwd.logits);
    nn::Mat grad(fwd.logits.rows(), fwd.logits.cols());
    util::CounterRng rng(0xF00Du + static_cast<std::uint64_t>(t));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      const double g = rng.normal();
      grad.data()[i] = (fwd.mask.data()[i] == 0.0 || i % 5 == 0) ? 0.0 : g;
    }
    model.backward_m(s.pb, fwd, grad);
  }
  Fnv grads;
  for (nn::Param* p : model.params()) grads.add(p->g);
  return {logits.hex(), grads.hex()};
}

TEST(FrozenBits, RolloutLogitsAndGradsB4) {
  const auto h = rollout_hashes(topo_setup("B4", 120), {});
  EXPECT_EQ(h.logits, "bd557970901e7d2d");
  EXPECT_EQ(h.grads, "7ea328db2a82d69c");
}

TEST(FrozenBits, RolloutLogitsAndGradsSwan) {
  // 400 demands: above the kernels' pool-parallel row threshold.
  const auto h = rollout_hashes(topo_setup("SWAN", 400), {});
  EXPECT_EQ(h.logits, "818976e683656d4e");
  EXPECT_EQ(h.grads, "c6cb95ae08a9726a");
}

TEST(FrozenBits, RolloutLogitsAndGradsWiderModel) {
  // Eight blocks widen the layers to 14, 16 and 28..32 inputs, so the
  // runtime-width kernel bodies run next to the fixed-width ones.
  core::TealModelConfig cfg;
  cfg.gnn.n_blocks = 8;
  const auto h = rollout_hashes(topo_setup("B4", 120), cfg);
  EXPECT_EQ(h.logits, "5445252e13a6344a");
  EXPECT_EQ(h.grads, "edd8b322c34f7cbb");
}

TEST(FrozenBits, ComaTrainedWeightsB4) {
  auto s = topo_setup("B4", 120);
  core::TealModel model({}, s.pb.k_paths(), /*seed=*/3);
  core::ComaConfig cfg;
  cfg.epochs = 2;
  cfg.rollout_batch = 2;
  core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  Fnv w;
  for (nn::Param* p : model.params()) w.add(p->w);
  EXPECT_EQ(w.hex(), "51ed89b4c33c738e");
}

}  // namespace
}  // namespace teal
