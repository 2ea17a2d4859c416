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
// The Solve* constants pin the f64 solve the same way: the allocations of
// TealScheme::solve_into (untrained model, softmax, ADMM fine-tune) at shard
// knobs 1 and 4, and the ADMM Residuals and output of fine_tune from a
// shortest-path start, with and without per-path objective weights and at
// zero iterations.
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

#include "core/admm.h"
#include "core/coma.h"
#include "core/model.h"
#include "core/teal_scheme.h"
#include "nn/module.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace teal {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const nn::Mat& m) { add(m.data().data(), m.size()); }
  void add(const std::vector<double>& v) { add(v.data(), v.size()); }
  void add(const double* v, std::size_t n) {
    const auto* p = reinterpret_cast<const unsigned char*>(v);
    for (std::size_t i = 0; i < n * sizeof(double); ++i) {
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

struct SolveHashes {
  std::string allocs, residuals;
};

// Three solve_into calls at shard knob `shards`, then the scheme's ADMM
// fine-tuning each interval's shortest-path allocation (overloaded at
// utilization 2) through one reused workspace; the residual hash covers
// (before, after) and the tuned allocation.
SolveHashes solve_hashes(const Setup& s, const core::TealSchemeConfig& cfg, int shards) {
  core::TealScheme scheme(s.pb, std::make_unique<core::TealModel>(cfg.model, s.pb.k_paths(), 3),
                          cfg);
  scheme.set_shard_count(shards);
  Fnv allocs, residuals;
  te::Allocation out;
  core::Admm::Workspace ws;
  const std::vector<double> caps = s.pb.capacities();
  const core::ShardPlan plan = core::ShardPlan::make(s.pb.num_demands(), shards);
  for (int t = 0; t < 3; ++t) {
    scheme.solve_into(s.pb, s.trace.at(t), out);
    allocs.add(out.split);
    te::Allocation a = s.pb.shortest_path_allocation();
    const auto r = scheme.admm().fine_tune(s.trace.at(t), caps, a, ws, plan);
    EXPECT_GT(r.before, 0.0);
    const double pair[2] = {r.before, r.after};
    residuals.add(pair, 2);
    residuals.add(a.split);
  }
  return {allocs.hex(), residuals.hex()};
}

TEST(FrozenBits, SolveTotalFlowB4) {
  const auto s = topo_setup("B4", 120);
  for (int shards : {1, 4}) {
    const auto h = solve_hashes(s, {}, shards);
    EXPECT_EQ(h.allocs, "cab20d36fce14e7f") << "shards " << shards;
    EXPECT_EQ(h.residuals, "3a6d169487fd82e2") << "shards " << shards;
  }
}

TEST(FrozenBits, SolveLatencyPenalizedSwan) {
  // Per-path objective weights (AdmmConfig::path_weight) and five ADMM
  // iterations over 400 demands.
  const auto s = topo_setup("SWAN", 400);
  core::TealSchemeConfig cfg;
  cfg.objective = te::Objective::kLatencyPenalizedFlow;
  cfg.admm_iterations = 5;
  for (int shards : {1, 4}) {
    const auto h = solve_hashes(s, cfg, shards);
    EXPECT_EQ(h.allocs, "f98702f2885308f6") << "shards " << shards;
    EXPECT_EQ(h.residuals, "1a5db84659e50cb2") << "shards " << shards;
  }
}

TEST(FrozenBits, SolveAdmmZeroIterations) {
  // No iteration runs: the clamp and both residuals come from the start.
  const auto s = topo_setup("SWAN", 400);
  core::AdmmConfig cfg;
  cfg.iterations = 0;
  const core::Admm admm(s.pb, cfg);
  Fnv residuals;
  for (int t = 0; t < 3; ++t) {
    te::Allocation a = s.pb.shortest_path_allocation();
    const auto r = admm.fine_tune(s.trace.at(t), s.pb.capacities(), a);
    EXPECT_GT(r.before, 0.0);
    EXPECT_EQ(r.after, r.before);
    const double pair[2] = {r.before, r.after};
    residuals.add(pair, 2);
    residuals.add(a.split);
  }
  EXPECT_EQ(residuals.hex(), "655e80c56d82bb31");
}

}  // namespace
}  // namespace teal
