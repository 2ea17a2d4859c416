// Tests for FlowGNN, the policy network, and the end-to-end TealModel —
// including a full finite-difference gradient check through message passing,
// DNN coordination layers, widening, and the policy head.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/model.h"
#include "core/teal_scheme.h"
#include "core/variants.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

te::Problem tiny_problem() {
  topo::Graph g("tiny");
  g.add_nodes(4);
  g.add_link(0, 1, 10, 1.0);
  g.add_link(1, 3, 12, 1.0);
  g.add_link(0, 2, 8, 1.2);
  g.add_link(2, 3, 9, 1.1);
  g.add_link(1, 2, 7, 0.9);
  return te::Problem(std::move(g), {{0, 3}, {3, 0}, {1, 2}}, 4);
}

te::TrafficMatrix tiny_tm() {
  te::TrafficMatrix tm;
  tm.volume = {5.0, 3.0, 2.0};
  return tm;
}

core::FlowGnn::Forward gnn_forward(const core::FlowGnn& gnn, const te::Problem& pb,
                                   const te::TrafficMatrix& tm,
                                   const std::vector<double>* caps = nullptr) {
  core::FlowGnn::Forward fwd;
  gnn.forward(pb, tm, caps, fwd, core::ShardPlan::sequential(pb.num_demands()));
  return fwd;
}

TEST(FlowGnn, ForwardShapes) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnnConfig cfg;
  cfg.n_blocks = 6;
  core::FlowGnn gnn(cfg, 4, rng);
  auto fwd = gnn_forward(gnn, pb, tiny_tm());
  EXPECT_EQ(fwd.final_paths.rows(), pb.total_paths());
  EXPECT_EQ(fwd.final_paths.cols(), 6);
  EXPECT_EQ(static_cast<int>(fwd.blocks.size()), 6);
  // Block l works at dim l+1.
  for (int l = 0; l < 6; ++l) {
    EXPECT_EQ(fwd.blocks[static_cast<std::size_t>(l)].path_in.cols(), l + 1);
  }
}

TEST(FlowGnn, EmbeddingsDependOnDemandVolume) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto tm1 = tiny_tm();
  auto f1 = gnn_forward(gnn, pb, tm1);
  auto tm2 = tiny_tm();
  tm2.volume[0] *= 3.0;
  auto f2 = gnn_forward(gnn, pb, tm2);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.final_paths.data().size(); ++i) {
    diff += std::abs(f1.final_paths.data()[i] - f2.final_paths.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(FlowGnn, EmbeddingsDependOnCapacities) {
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto caps = pb.capacities();
  auto f1 = gnn_forward(gnn, pb, tiny_tm(), &caps);
  caps[0] = 0.0;  // fail a link
  auto f2 = gnn_forward(gnn, pb, tiny_tm(), &caps);
  double diff = 0.0;
  for (std::size_t i = 0; i < f1.final_paths.data().size(); ++i) {
    diff += std::abs(f1.final_paths.data()[i] - f2.final_paths.data()[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

// Full finite-difference check of d(loss)/d(theta) for a random linear loss
// on the logits, through the Model seam (forward_m / backward_m).
void expect_gradients_match_finite_differences(core::Model& model, const te::Problem& pb,
                                               const te::TrafficMatrix& tm) {
  util::Rng rng(3);
  nn::Mat coef(pb.num_demands(), pb.k_paths());
  for (auto& v : coef.data()) v = rng.normal();

  auto eval = [&] {
    auto fwd = model.forward_m(pb, tm);
    double s = 0.0;
    for (std::size_t i = 0; i < fwd.logits.data().size(); ++i) {
      s += fwd.logits.data()[i] * coef.data()[i];
    }
    return s;
  };

  auto fwd = model.forward_m(pb, tm);
  for (auto* p : model.params()) p->zero_grad();
  model.backward_m(pb, fwd, coef);

  const double eps = 1e-6;
  int checked = 0;
  for (auto* p : model.params()) {
    // Spot-check a handful of entries per parameter to keep runtime sane.
    for (std::size_t i = 0; i < p->w.data().size(); i += std::max<std::size_t>(1, p->w.data().size() / 4)) {
      double orig = p->w.data()[i];
      p->w.data()[i] = orig + eps;
      double up = eval();
      p->w.data()[i] = orig - eps;
      double down = eval();
      p->w.data()[i] = orig;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->g.data()[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)));
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(TealModel, EndToEndGradCheck) {
  // Through policy net + FlowGNN.
  auto pb = tiny_problem();
  core::TealModelConfig cfg;
  cfg.gnn.n_blocks = 3;  // smaller model keeps the check fast
  cfg.policy.hidden_dim = 8;
  core::TealModel model(cfg, pb.k_paths(), 7);
  expect_gradients_match_finite_differences(model, pb, tiny_tm());
}

TEST(GlobalPolicyModel, EndToEndGradCheck) {
  // Through the giant policy layers and the FlowGNN backward they share with
  // TealModel.
  auto pb = tiny_problem();
  core::GlobalPolicyConfig cfg;
  cfg.gnn.n_blocks = 3;
  cfg.hidden_dim = 8;
  core::GlobalPolicyModel model(cfg, pb, 7);
  expect_gradients_match_finite_differences(model, pb, tiny_tm());
}

TEST(TealModel, MaskZeroesMissingPaths) {
  // A demand pair with fewer than 4 simple paths must get zero splits there.
  topo::Graph g("line");
  g.add_nodes(3);
  g.add_link(0, 1, 10, 1.0);
  g.add_link(1, 2, 10, 1.0);
  te::Problem pb(std::move(g), {{0, 2}}, 4);
  ASSERT_EQ(pb.num_paths(0), 1);  // only one simple path exists
  core::TealModel model({}, pb.k_paths(), 5);
  te::TrafficMatrix tm;
  tm.volume = {1.0};
  auto fwd = model.forward_m(pb, tm);
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  EXPECT_NEAR(splits.at(0, 0), 1.0, 1e-12);
  for (int c = 1; c < 4; ++c) EXPECT_DOUBLE_EQ(splits.at(0, c), 0.0);
}

TEST(TealModel, SplitsFormValidAllocation) {
  auto pb = tiny_problem();
  core::TealModel model({}, pb.k_paths(), 11);
  auto fwd = model.forward_m(pb, tiny_tm());
  auto splits = core::splits_from_logits(fwd.logits, fwd.mask);
  auto alloc = core::allocation_from_splits(pb, splits);
  EXPECT_NO_THROW(pb.validate_allocation(alloc));
  // Softmax routes everything: per-demand sums are exactly 1.
  for (int d = 0; d < pb.num_demands(); ++d) {
    double sum = 0.0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      sum += alloc.split[static_cast<std::size_t>(p)];
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(TealModel, SaveLoadPreservesOutputs) {
  auto pb = tiny_problem();
  core::TealModel a({}, pb.k_paths(), 21);
  auto path = (std::filesystem::temp_directory_path() / "teal_model_test.bin").string();
  a.save(path);
  core::TealModel b({}, pb.k_paths(), 99);  // different init
  ASSERT_TRUE(b.load(path));
  auto fa = a.forward_m(pb, tiny_tm());
  auto fb = b.forward_m(pb, tiny_tm());
  for (std::size_t i = 0; i < fa.logits.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(fa.logits.data()[i], fb.logits.data()[i]);
  }
  std::filesystem::remove(path);
}

std::vector<std::vector<double>> param_values(core::Model& m) {
  std::vector<std::vector<double>> out;
  for (auto* p : m.params()) out.emplace_back(p->w.data().begin(), p->w.data().end());
  return out;
}

TEST(TealModel, DamagedCacheLoadLeavesParamsUntouched) {
  // load() is all-or-nothing: a truncated file, a shape mismatch past the
  // first parameter and trailing garbage each return false with every
  // parameter byte-identical to before the call.
  auto pb = tiny_problem();
  const auto path = (std::filesystem::temp_directory_path() / "teal_damaged_cache.bin").string();
  core::TealModel({}, pb.k_paths(), 21).save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << "save must rename its temp file";
  std::string good;
  {
    std::ifstream f(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  auto write = [&](const std::string& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  core::TealModelConfig narrow_policy;
  narrow_policy.policy.hidden_dim = 12;  // same param count, different policy shapes
  std::string wrong_shape;
  {
    core::TealModel(narrow_policy, pb.k_paths(), 21).save(path);
    std::ifstream f(path, std::ios::binary);
    wrong_shape.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  const std::pair<const char*, std::string> damaged[] = {
      {"truncated by 8 bytes", good.substr(0, good.size() - 8)},
      {"wrong shape", wrong_shape},
      {"7 trailing bytes", good + std::string(7, '\x5a')},
  };
  core::TealModel target({}, pb.k_paths(), 99);
  const auto before = param_values(target);
  for (const auto& [what, bytes] : damaged) {
    write(bytes);
    EXPECT_FALSE(target.load(path)) << what;
    const auto after = param_values(target);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(after[i].data(), before[i].data(),
                               before[i].size() * sizeof(double)))
          << what << ": param " << i << " changed";
    }
  }
  write(good);
  EXPECT_TRUE(target.load(path));
  std::filesystem::remove(path);
}

TEST(PolicyNet, LayerCountConfigurable) {
  util::Rng rng(31);
  for (int layers : {1, 2, 4}) {
    core::PolicyConfig pc;
    pc.n_hidden_layers = layers;
    core::PolicyNet net(pc, 24, 4, rng);
    core::PolicyNet::Forward fwd;
    fwd.input = nn::Mat(5, 24, 0.1);
    net.prepare_forward(fwd);
    net.forward_rows(fwd, 0, 5);
    EXPECT_EQ(fwd.logits.rows(), 5);
    EXPECT_EQ(fwd.logits.cols(), 4);
  }
}

TEST(MaskGuard, FullyMaskedRowWithPathsThrows) {
  // The policy-boundary contract: a demand that owns paths must keep at
  // least one nonzero mask entry, otherwise the masked softmax emits an
  // all-zero split row that downstream ADMM consumes silently.
  auto pb = tiny_problem();
  nn::Mat mask(pb.num_demands(), pb.k_paths(), 1.0);
  EXPECT_NO_THROW(core::check_policy_mask_rows(pb, mask, 0, pb.num_demands()));
  for (int c = 0; c < pb.k_paths(); ++c) mask.at(1, c) = 0.0;
  EXPECT_THROW(core::check_policy_mask_rows(pb, mask, 0, pb.num_demands()),
               std::logic_error);
  // A slice that does not cover the offending demand stays clean (the solve
  // path checks per shard slice).
  EXPECT_NO_THROW(core::check_policy_mask_rows(pb, mask, 2, pb.num_demands()));
}

// A model that zeroes the mask row of demand 0 — which does have paths —
// mimicking a buggy masked-variant or corrupted path structure.
class ZeroMaskModel : public core::TealModel {
 public:
  using core::TealModel::TealModel;
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, core::ModelForward& fwd,
                  const core::ShardPlan& shards,
                  core::ShardStat* stats) const override {
    core::TealModel::forward_ws(pb, tm, capacities, fwd, shards, stats);
    for (int c = 0; c < fwd.mask.cols(); ++c) fwd.mask.at(0, c) = 0.0;
  }
};

TEST(MaskGuard, SchemeSolveRejectsFullyMaskedDemand) {
  // Regression for the silent-zero-allocation bug: the solve must throw at
  // the policy boundary instead of handing ADMM an all-zero split row.
  auto pb = tiny_problem();
  core::TealScheme scheme(
      pb, std::make_unique<ZeroMaskModel>(core::TealModelConfig{}, pb.k_paths(), 5),
      core::TealSchemeConfig{});
  EXPECT_THROW(scheme.solve(pb, tiny_tm()), std::logic_error);
}

TEST(MaskGuard, ValidModelSolvesClean) {
  // The guard must not fire on the healthy pipeline (every demand here has
  // at least one path, so every mask row has a nonzero entry).
  auto pb = tiny_problem();
  core::TealScheme scheme(
      pb, std::make_unique<core::TealModel>(core::TealModelConfig{}, pb.k_paths(), 5),
      core::TealSchemeConfig{});
  EXPECT_NO_THROW(scheme.solve(pb, tiny_tm()));
}

TEST(FlowGnn, ComputationIndependentOfTrafficValues) {
  // §5.2: Teal's flop count does not depend on the traffic matrix values —
  // identical shapes in, identical shapes out, no data-dependent branching.
  auto pb = tiny_problem();
  util::Rng rng(1);
  core::FlowGnn gnn({}, 4, rng);
  auto tm_small = tiny_tm();
  auto tm_large = tiny_tm();
  for (auto& v : tm_large.volume) v *= 1000.0;
  auto f1 = gnn_forward(gnn, pb, tm_small);
  auto f2 = gnn_forward(gnn, pb, tm_large);
  EXPECT_TRUE(f1.final_paths.same_shape(f2.final_paths));
}

}  // namespace
}  // namespace teal
