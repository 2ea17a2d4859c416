// Tests for the RL machinery: RewardSimulator consistency and the COMA* /
// direct-loss trainers actually improving the TE objective.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/coma.h"
#include "core/direct_loss.h"
#include "core/model.h"
#include "core/reward.h"
#include "core/teal_scheme.h"
#include "lp/path_lp.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup(double util = 1.8, int n_intervals = 12) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = n_intervals;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, util);
  return Setup{std::move(pb), std::move(trace)};
}

nn::Mat uniform_splits(const te::Problem& pb, int k) {
  nn::Mat s(pb.num_demands(), k);
  for (int d = 0; d < pb.num_demands(); ++d) {
    int np = pb.num_paths(d);
    for (int c = 0; c < np && c < k; ++c) {
      s.at(d, c) = 1.0 / static_cast<double>(np);
    }
  }
  return s;
}

TEST(RewardSimulator, GlobalRewardMatchesObjective) {
  auto s = b4_setup();
  core::RewardSimulator sim(s.pb, te::Objective::kTotalFlow);
  auto splits = uniform_splits(s.pb, 4);
  sim.set_state(s.trace.at(0), s.pb.capacities(), splits);
  auto alloc = core::allocation_from_splits(s.pb, splits);
  EXPECT_NEAR(sim.global_reward(), te::total_feasible_flow(s.pb, s.trace.at(0), alloc),
              1e-9);
}

TEST(RewardSimulator, LocalValuePrefersMoreFlowWhenUncongested) {
  auto s = b4_setup(1.0);  // ample capacity
  core::RewardSimulator sim(s.pb, te::Objective::kTotalFlow);
  auto splits = uniform_splits(s.pb, 4);
  sim.set_state(s.trace.at(0), s.pb.capacities(), splits);
  auto scratch = sim.make_scratch();
  // Candidate A: route everything; candidate B: route half.
  double full[4] = {0.25, 0.25, 0.25, 0.25};
  double half[4] = {0.125, 0.125, 0.125, 0.125};
  int d = 0;
  EXPECT_GT(sim.value_of(d, full, scratch), sim.value_of(d, half, scratch));
}

TEST(RewardSimulator, LocalValuePenalizesCongestingOthers) {
  // Demand 0 and a large background demand share a bottleneck; pushing all of
  // demand 0 onto the shared shortest path should score worse than avoiding
  // it when the alternative is free.
  topo::Graph g("shared");
  g.add_nodes(4);
  g.add_link(0, 1, 10, 1.0);   // bottleneck
  g.add_link(1, 3, 50, 1.0);
  g.add_link(0, 2, 50, 2.0);   // longer but empty detour
  g.add_link(2, 3, 50, 2.0);
  te::Problem pb(std::move(g), {{0, 3}, {0, 1}}, 4);
  te::TrafficMatrix tm;
  tm.volume = {8.0, 9.0};  // together they overflow the 10-capacity link

  core::RewardSimulator sim(pb, te::Objective::kTotalFlow);
  nn::Mat splits(2, 4);
  splits.at(0, 0) = 1.0;  // demand 0 on the shared path (via edge 0->1)
  splits.at(1, 0) = 1.0;  // background demand pinned on 0->1
  sim.set_state(tm, pb.capacities(), splits);
  auto scratch = sim.make_scratch();
  double on_shared[4] = {1.0, 0.0, 0.0, 0.0};
  double on_detour[4] = {0.0, 1.0, 0.0, 0.0};
  EXPECT_GT(sim.value_of(0, on_detour, scratch), sim.value_of(0, on_shared, scratch));
}

TEST(RewardSimulator, ValueOfIsSideEffectFree) {
  auto s = b4_setup();
  core::RewardSimulator sim(s.pb, te::Objective::kTotalFlow);
  auto splits = uniform_splits(s.pb, 4);
  sim.set_state(s.trace.at(0), s.pb.capacities(), splits);
  auto scratch = sim.make_scratch();
  double cand[4] = {1.0, 0.0, 0.0, 0.0};
  double v1 = sim.value_of(3, cand, scratch);
  double v2 = sim.value_of(3, cand, scratch);
  EXPECT_DOUBLE_EQ(v1, v2);
  EXPECT_DOUBLE_EQ(sim.global_reward(), sim.global_reward());
}

TEST(TrainComa, ImprovesSatisfiedDemand) {
  auto s = b4_setup(2.5, 16);  // congested enough that allocation matters
  core::TealModelConfig mc;
  core::TealModel model(mc, s.pb.k_paths(), 3);

  // Untrained performance on the last matrix.
  auto before_fwd = model.forward_m(s.pb, s.trace.at(15));
  auto before = core::allocation_from_splits(
      s.pb, core::splits_from_logits(before_fwd.logits, before_fwd.mask));
  double before_pct = te::satisfied_demand_pct(s.pb, s.trace.at(15), before);

  core::ComaConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 3e-3;
  auto stats = core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  ASSERT_EQ(static_cast<int>(stats.epoch_reward.size()), 10);

  auto after_fwd = model.forward_m(s.pb, s.trace.at(15));
  auto after = core::allocation_from_splits(
      s.pb, core::splits_from_logits(after_fwd.logits, after_fwd.mask));
  double after_pct = te::satisfied_demand_pct(s.pb, s.trace.at(15), after);
  EXPECT_GT(after_pct, before_pct);
  // Learning curve should trend up: last-epoch reward above first-epoch.
  EXPECT_GT(stats.epoch_reward.back(), stats.epoch_reward.front());
}

TEST(TrainDirectLoss, ImprovesSurrogate) {
  auto s = b4_setup(2.5, 16);
  core::TealModel model({}, s.pb.k_paths(), 3);
  core::DirectLossConfig cfg;
  cfg.epochs = 8;
  cfg.lr = 3e-3;
  auto stats = core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  ASSERT_EQ(static_cast<int>(stats.epoch_surrogate.size()), 8);
  EXPECT_GT(stats.epoch_surrogate.back(), stats.epoch_surrogate.front());
}

TEST(TrainDirectLoss, RejectsMlu) {
  auto s = b4_setup();
  core::TealModel model({}, s.pb.k_paths(), 3);
  EXPECT_THROW(
      core::train_direct_loss(model, s.pb, s.trace, te::Objective::kMinMaxLinkUtil, {}),
      std::invalid_argument);
}

TEST(TealScheme, SolveIsFastAndValid) {
  auto s = b4_setup(2.0, 8);
  core::TealSchemeConfig cfg;
  core::TealTrainOptions opts;
  opts.trainer = core::Trainer::kDirectLoss;  // fast for this smoke test
  opts.direct.epochs = 2;
  auto scheme = core::make_teal_scheme(s.pb, s.trace, cfg, opts);
  auto alloc = scheme->solve(s.pb, s.trace.at(0));
  EXPECT_NO_THROW(s.pb.validate_allocation(alloc));
  EXPECT_GT(scheme->last_solve_seconds(), 0.0);
  EXPECT_LT(scheme->last_solve_seconds(), 5.0);
}

TEST(TealScheme, NearOptimalOnB4AfterTraining) {
  // The headline property at unit scale: Teal's satisfied demand lands close
  // to LP-all's on B4.
  auto s = b4_setup(1.8, 20);
  core::TealSchemeConfig cfg;
  core::TealTrainOptions opts;
  opts.coma.epochs = 12;
  opts.coma.lr = 3e-3;
  auto scheme = core::make_teal_scheme(s.pb, s.trace, cfg, opts);

  double teal_sum = 0.0, lp_sum = 0.0;
  for (int t = 16; t < 20; ++t) {
    auto teal_alloc = scheme->solve(s.pb, s.trace.at(t));
    auto lp_alloc = lp::solve_flow_lp(s.pb, s.trace.at(t));
    teal_sum += te::satisfied_demand_pct(s.pb, s.trace.at(t), teal_alloc);
    lp_sum += te::satisfied_demand_pct(s.pb, s.trace.at(t), lp_alloc);
  }
  EXPECT_GT(teal_sum / 4.0, 0.85 * lp_sum / 4.0);
}

TEST(TealScheme, ModelCacheRoundTrip) {
  auto s = b4_setup(2.0, 6);
  auto cache = (std::filesystem::temp_directory_path() / "teal_cache_test.bin").string();
  std::filesystem::remove(cache);
  core::TealSchemeConfig cfg;
  core::TealTrainOptions opts;
  opts.trainer = core::Trainer::kDirectLoss;
  opts.direct.epochs = 1;
  opts.cache_path = cache;
  auto s1 = core::make_teal_scheme(s.pb, s.trace, cfg, opts);
  ASSERT_TRUE(std::filesystem::exists(cache));
  auto s2 = core::make_teal_scheme(s.pb, s.trace, cfg, opts);  // loads
  auto a1 = s1->solve(s.pb, s.trace.at(0));
  auto a2 = s2->solve(s.pb, s.trace.at(0));
  for (std::size_t i = 0; i < a1.split.size(); ++i) {
    EXPECT_DOUBLE_EQ(a1.split[i], a2.split[i]);
  }
  std::filesystem::remove(cache);
}

}  // namespace
}  // namespace teal
