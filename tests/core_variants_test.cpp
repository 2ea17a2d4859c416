// Tests for the Figure 14 ablation models: shapes, gradient flow (training
// reduces loss), and the global policy's memory-budget failure on large
// problems (the paper's "memory errors" on ASN).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/direct_loss.h"
#include "core/teal_scheme.h"
#include "core/variants.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

struct Setup {
  te::Problem pb;
  traffic::Trace trace;
};

Setup b4_setup() {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 10;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.2);
  return Setup{std::move(pb), std::move(trace)};
}

TEST(NaiveDnn, ForwardShapesAndMask) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  auto fwd = model.forward_m(s.pb, s.trace.at(0));
  EXPECT_EQ(fwd.logits.rows(), s.pb.num_demands());
  EXPECT_EQ(fwd.logits.cols(), 4);
  EXPECT_EQ(fwd.mask.rows(), s.pb.num_demands());
}

TEST(NaiveDnn, TrainsWithDirectLoss) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  core::DirectLossConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 3e-3;
  auto stats = core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_GT(stats.epoch_surrogate.back(), stats.epoch_surrogate.front());
}

TEST(NaiveDnn, RejectsMismatchedProblem) {
  auto s = b4_setup();
  core::NaiveDnnModel model({}, s.pb, 3);
  auto g2 = topo::make_b4();
  te::Problem other(std::move(g2), {{0, 1}}, 4);
  te::TrafficMatrix tm;
  tm.volume = {1.0};
  EXPECT_THROW(model.forward_m(other, tm), std::invalid_argument);
}

TEST(NaiveGnn, ForwardDependsOnTopologyFeatures) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  auto caps = s.pb.capacities();
  auto f1 = model.forward_m(s.pb, s.trace.at(0), &caps);
  caps[0] *= 0.01;
  auto f2 = model.forward_m(s.pb, s.trace.at(0), &caps);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.logits.data().size(); ++i) {
    diff += std::abs(f1.logits.data()[i] - f2.logits.data()[i]);
  }
  EXPECT_GT(diff, 1e-9);
}

TEST(NaiveGnn, TrainsWithDirectLoss) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  core::DirectLossConfig cfg;
  cfg.epochs = 6;
  cfg.lr = 3e-3;
  auto stats = core::train_direct_loss(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_GT(stats.epoch_surrogate.back(), stats.epoch_surrogate.front());
}

TEST(GlobalPolicy, WorksOnSmallProblem) {
  auto s = b4_setup();
  core::GlobalPolicyConfig cfg;
  cfg.hidden_dim = 32;
  core::GlobalPolicyModel model(cfg, s.pb, 3);
  auto fwd = model.forward_m(s.pb, s.trace.at(0));
  EXPECT_EQ(fwd.logits.rows(), s.pb.num_demands());
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  auto alloc = core::allocation_from_splits(s.pb, splits);
  EXPECT_NO_THROW(s.pb.validate_allocation(alloc));
}

TEST(GlobalPolicy, MemoryBudgetThrowsOnLargeProblems) {
  // Reproduces the §5.7 finding that the global policy has "memory errors"
  // at scale: a tiny budget makes even B4 refuse.
  auto s = b4_setup();
  core::GlobalPolicyConfig cfg;
  cfg.max_params = 1000;
  EXPECT_THROW(core::GlobalPolicyModel(cfg, s.pb, 3), std::length_error);
}

TEST(Variants, PlugIntoTealScheme) {
  auto s = b4_setup();
  core::TealSchemeConfig scfg;
  auto model = std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, s.pb, 3);
  core::TealScheme scheme(s.pb, std::move(model), scfg, "Teal w/ naive DNN");
  EXPECT_EQ(scheme.name(), "Teal w/ naive DNN");
  auto alloc = scheme.solve(s.pb, s.trace.at(0));
  EXPECT_NO_THROW(s.pb.validate_allocation(alloc));
}

// Each variant's backward reads its own typed forward cache, so it must
// refuse a cache another model produced — here a TealModel's — with the
// owner check (std::logic_error naming the cache), never by reinterpreting
// it. A grads view of the wrong size is refused too.
TEST(Variants, BackwardRejectsForeignCache) {
  auto s = b4_setup();
  core::TealModel teal(core::TealModelConfig{}, s.pb.k_paths(), 3);
  const core::ModelForward foreign = teal.forward_m(s.pb, s.trace.at(0));
  nn::Mat grad(s.pb.num_demands(), s.pb.k_paths(), 1.0);
  core::GlobalPolicyConfig gcfg;
  gcfg.hidden_dim = 16;
  std::vector<std::unique_ptr<core::Model>> variants;
  variants.push_back(std::make_unique<core::NaiveDnnModel>(core::NaiveDnnConfig{}, s.pb, 3));
  variants.push_back(std::make_unique<core::NaiveGnnModel>(core::NaiveGnnConfig{}, s.pb, 3));
  variants.push_back(std::make_unique<core::GlobalPolicyModel>(gcfg, s.pb, 3));
  for (auto& model : variants) {
    try {
      model->backward_m(s.pb, foreign, grad);
      ADD_FAILURE() << "a foreign forward cache was accepted";
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "foreign cache reinterpreted (shape error): " << e.what();
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("forward cache"), std::string::npos) << e.what();
    }
    const core::ModelForward own = model->forward_m(s.pb, s.trace.at(0));
    core::TrainBackward bws;
    EXPECT_THROW(model->backward_ws(s.pb, own, grad, bws, nn::GradRefs{}),
                 std::invalid_argument);
  }
}

TEST(Variants, ComaTrainsNaiveGnn) {
  auto s = b4_setup();
  core::NaiveGnnModel model({}, s.pb, 3);
  core::ComaConfig cfg;
  cfg.epochs = 3;
  cfg.lr = 3e-3;
  auto stats = core::train_coma(model, s.pb, s.trace, te::Objective::kTotalFlow, cfg);
  EXPECT_EQ(static_cast<int>(stats.epoch_reward.size()), 3);
}

}  // namespace
}  // namespace teal
