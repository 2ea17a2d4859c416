// Randomized consistency checks for the RewardSimulator's edge-local
// counterfactual values against exact global recomputation: for the total
// flow objective, the *difference* of local values between two candidate
// actions of one agent must track the difference of exact global rewards
// (same sign for clear-cut cases, bounded error in general). This is the
// property COMA*'s advantages rely on.
//
// A second suite pins value_of bit for bit against a frozen copy of the
// pre-index implementation (a full rescan of the demand's paths per call),
// so the per-demand edge index cannot drift from the arithmetic the trained
// models were produced with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/model.h"
#include "core/reward.h"
#include "lp/path_lp.h"
#include "scenario/generators.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace teal {
namespace {

struct Env {
  te::Problem pb;
  traffic::Trace trace;
};

Env make_env(std::uint64_t seed) {
  auto g = topo::make_swan_like(seed);
  te::Problem pb(std::move(g), traffic::sample_demands(g, 300, seed + 1), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 3;
  cfg.seed = seed + 2;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities_to_satisfied(pb, trace, 70.0);
  return Env{std::move(pb), std::move(trace)};
}

// Exact global reward with demand d's splits replaced by `cand`.
double exact_with(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const nn::Mat& splits, int d, const double* cand) {
  nn::Mat s = splits;
  for (int c = 0; c < s.cols(); ++c) s.at(d, c) = cand[c];
  auto a = core::allocation_from_splits(pb, s);
  return te::total_feasible_flow(pb, tm, a);
}

class RewardConsistency : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RewardConsistency, LocalDeltasTrackExactDeltas) {
  Env env = make_env(GetParam());
  const auto& tm = env.trace.at(0);
  util::Rng rng(GetParam() * 31337);

  // Random joint action.
  const int k = 4;
  nn::Mat splits(env.pb.num_demands(), k);
  for (int d = 0; d < env.pb.num_demands(); ++d) {
    double rest = 1.0;
    for (int c = 0; c < env.pb.num_paths(d) && c < k; ++c) {
      double s = rng.uniform(0.0, rest);
      splits.at(d, c) = s;
      rest -= s;
    }
  }
  core::RewardSimulator sim(env.pb, te::Objective::kTotalFlow);
  sim.set_state(tm, env.pb.capacities(), splits);
  auto scratch = sim.make_scratch();

  int sign_ok = 0, trials = 0;
  for (int trial = 0; trial < 80; ++trial) {
    int d = static_cast<int>(rng.uniform_int(0, env.pb.num_demands() - 1));
    // Two random candidate actions.
    double a1[4] = {0, 0, 0, 0}, a2[4] = {0, 0, 0, 0};
    auto fill = [&](double* a) {
      double rest = 1.0;
      for (int c = 0; c < env.pb.num_paths(d) && c < 4; ++c) {
        a[c] = rng.uniform(0.0, rest);
        rest -= a[c];
      }
    };
    fill(a1);
    fill(a2);

    double local_delta = sim.value_of(d, a1, scratch) - sim.value_of(d, a2, scratch);
    double exact_delta = exact_with(env.pb, tm, splits, d, a1) -
                         exact_with(env.pb, tm, splits, d, a2);
    // Only score clear-cut cases (deltas above numeric noise).
    double mag = std::max(std::abs(local_delta), std::abs(exact_delta));
    if (mag < 1e-6 * tm.total()) continue;
    ++trials;
    if (local_delta * exact_delta > 0.0 ||
        std::abs(local_delta - exact_delta) < 0.2 * mag) {
      ++sign_ok;
    }
  }
  ASSERT_GT(trials, 5);
  // The estimator is approximate (edge-local externalities), but must agree
  // on direction for the overwhelming majority of action comparisons.
  EXPECT_GE(static_cast<double>(sign_ok) / trials, 0.78)
      << sign_ok << "/" << trials << " consistent";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewardConsistency, testing::Values(2u, 4u, 8u));

// ---------------------------------------------------------------------------
// Frozen reference: RewardSimulator::value_of as it was before the per-demand
// edge index (whole-graph delta array, `own_old` rescanned for every touched
// edge). The body of value_of is copied verbatim apart from this comment.
class FrozenRewardSimulator {
 public:
  FrozenRewardSimulator(const te::Problem& pb, te::Objective obj, double latency_penalty = 0.5)
      : pb_(pb), obj_(obj) {
    if (obj == te::Objective::kLatencyPenalizedFlow) {
      path_weight_ = lp::latency_penalty_weights(pb, latency_penalty);
    } else {
      path_weight_.assign(static_cast<std::size_t>(pb.total_paths()), 1.0);
    }
  }

  void set_state(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                 const nn::Mat& splits) {
    tm_ = &tm;
    caps_ = capacities;
    splits_ = splits;
    load_ = te::edge_loads(pb_, tm, core::allocation_from_splits(pb_, splits));
  }

  struct Scratch {
    std::vector<double> edge_load_delta;
    std::vector<int> touched;
  };
  Scratch make_scratch() const {
    Scratch s;
    s.edge_load_delta.assign(static_cast<std::size_t>(pb_.graph().num_edges()), 0.0);
    return s;
  }

  double value_of(int d, const double* candidate, Scratch& scratch) const {
    const double vol = tm_->volume[static_cast<std::size_t>(d)];
    scratch.touched.clear();

    // Replace demand d's contribution on every edge its paths touch.
    int slot = 0;
    for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p, ++slot) {
      const double old_f = splits_.at(d, slot) * vol;
      const double new_f = std::max(0.0, candidate[slot]) * vol;
      const double delta = new_f - old_f;
      for (topo::EdgeId e : pb_.path_edges(p)) {
        auto es = static_cast<std::size_t>(e);
        if (scratch.edge_load_delta[es] == 0.0) scratch.touched.push_back(e);
        scratch.edge_load_delta[es] += delta;
      }
    }
    // An edge is listed again each time it is reached with an accumulated
    // delta of exactly 0.0 (every occurrence, for the unchanged action).

    auto factor_at = [&](topo::EdgeId e, double load) {
      double c = caps_[static_cast<std::size_t>(e)];
      if (load <= c) return 1.0;
      return load > 0.0 ? c / load : 1.0;
    };

    double value = 0.0;
    if (obj_ == te::Objective::kMinMaxLinkUtil) {
      // Local MLU proxy: the worst utilization among edges this demand can see.
      double worst = 0.0;
      slot = 0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p, ++slot) {
        for (topo::EdgeId e : pb_.path_edges(p)) {
          auto es = static_cast<std::size_t>(e);
          double c = caps_[es];
          double ld = load_[es] + scratch.edge_load_delta[es];
          worst = std::max(worst, c > 0.0 ? ld / c : (ld > 0.0 ? 1e9 : 0.0));
        }
      }
      value = -worst;
    } else {
      // Own delivered (latency-weighted if applicable).
      slot = 0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p, ++slot) {
        const double f = std::max(0.0, candidate[slot]) * vol;
        if (f <= 0.0) continue;
        double surv = 1.0;
        for (topo::EdgeId e : pb_.path_edges(p)) {
          auto es = static_cast<std::size_t>(e);
          surv = std::min(surv, factor_at(e, load_[es] + scratch.edge_load_delta[es]));
        }
        value += path_weight_[static_cast<std::size_t>(p)] * f * surv;
      }
      // Externality on other flows sharing the touched edges: their intended
      // volume scaled by the (possibly degraded) survival factor.
      for (topo::EdgeId e : scratch.touched) {
        auto es = static_cast<std::size_t>(e);
        double new_load = load_[es] + scratch.edge_load_delta[es];
        // Others' intended volume on e under the *current* joint action: total
        // minus this demand's current contribution.
        double own_old = 0.0;
        int s2 = 0;
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p, ++s2) {
          for (topo::EdgeId pe : pb_.path_edges(p)) {
            if (pe == e) own_old += splits_.at(d, s2) * vol;
          }
        }
        double others = std::max(0.0, load_[es] - own_old);
        value += others * factor_at(e, new_load);
      }
    }

    // Reset scratch.
    for (topo::EdgeId e : scratch.touched) {
      scratch.edge_load_delta[static_cast<std::size_t>(e)] = 0.0;
    }
    return value;
  }

 private:
  const te::Problem& pb_;
  te::Objective obj_;
  std::vector<double> path_weight_;
  const te::TrafficMatrix* tm_ = nullptr;
  std::vector<double> caps_;
  nn::Mat splits_;
  std::vector<double> load_;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Joint action: a masked softmax of random logits per demand, or, with
// `dyadic`, an even split over the first two paths (deltas of exact halves
// make accumulated edge deltas cancel to exactly 0.0 and re-list edges).
nn::Mat joint_splits(const te::Problem& pb, int k, util::Rng& rng, bool dyadic) {
  nn::Mat s(pb.num_demands(), k);
  for (int d = 0; d < pb.num_demands(); ++d) {
    const int np = std::min(pb.num_paths(d), k);
    if (dyadic) {
      for (int c = 0; c < np && c < 2; ++c) s.at(d, c) = np == 1 ? 1.0 : 0.5;
      continue;
    }
    double denom = 0.0;
    for (int c = 0; c < np; ++c) denom += (s.at(d, c) = std::exp(rng.normal()));
    for (int c = 0; c < np; ++c) s.at(d, c) /= denom;
  }
  return s;
}

// Every candidate shape of one demand: the current splits (all deltas 0.0),
// random softmax rows, all zeros, signed entries, mass moved between the
// first two paths, and garbage beyond the demand's path count.
std::vector<std::vector<double>> candidates_for(const te::Problem& pb, const nn::Mat& splits,
                                                int d, util::Rng& rng) {
  const int k = splits.cols();
  const int np = std::min(pb.num_paths(d), k);
  std::vector<std::vector<double>> out;
  out.emplace_back(splits.row_ptr(d), splits.row_ptr(d) + k);
  for (int r = 0; r < 3; ++r) {
    std::vector<double> c(static_cast<std::size_t>(k), 0.0);
    double denom = 0.0;
    for (int i = 0; i < np; ++i) denom += (c[static_cast<std::size_t>(i)] = std::exp(rng.normal()));
    for (int i = 0; i < np; ++i) c[static_cast<std::size_t>(i)] /= denom;
    out.push_back(std::move(c));
  }
  out.emplace_back(static_cast<std::size_t>(k), 0.0);
  std::vector<double> neg(static_cast<std::size_t>(k));
  for (auto& x : neg) x = rng.uniform(-1.0, 1.0);
  out.push_back(std::move(neg));
  std::vector<double> swap(static_cast<std::size_t>(k), 0.0);
  swap[0] = 1.0;
  out.push_back(std::move(swap));
  if (np >= 2) {
    std::vector<double> other(static_cast<std::size_t>(k), 0.0);
    other[1] = 1.0;
    out.push_back(std::move(other));
  }
  std::vector<double> tail(splits.row_ptr(d), splits.row_ptr(d) + k);
  for (int i = np; i < k; ++i) tail[static_cast<std::size_t>(i)] = 7.5;
  out.push_back(std::move(tail));
  return out;
}

void expect_value_of_matches_frozen(const te::Problem& pb, const traffic::Trace& trace,
                                    const std::string& what) {
  const int k = pb.k_paths();
  const std::vector<double> caps = pb.capacities();
  for (te::Objective obj : {te::Objective::kTotalFlow, te::Objective::kMinMaxLinkUtil,
                            te::Objective::kLatencyPenalizedFlow}) {
    core::RewardSimulator sim(pb, obj);
    FrozenRewardSimulator ref(pb, obj);
    auto scratch = sim.make_scratch();
    auto ref_scratch = ref.make_scratch();
    util::Rng rng(static_cast<std::uint64_t>(obj) * 977 + 5);
    long compared = 0;
    for (int t = 0; t < trace.size(); ++t) {
      for (bool dyadic : {false, true}) {
        const nn::Mat splits = joint_splits(pb, k, rng, dyadic);
        sim.set_state(trace.at(t), caps, splits);
        ref.set_state(trace.at(t), caps, splits);
        for (int d = 0; d < pb.num_demands(); ++d) {
          for (const auto& cand : candidates_for(pb, splits, d, rng)) {
            const double want = ref.value_of(d, cand.data(), ref_scratch);
            const double got = sim.value_of(d, cand.data(), scratch);
            const double again = sim.value_of(d, cand.data(), scratch);
            ASSERT_TRUE(same_bits(got, want) && same_bits(again, want))
                << what << " objective " << static_cast<int>(obj) << " t=" << t
                << " dyadic=" << dyadic << " demand " << d << ": " << got << " vs frozen "
                << want;
            ++compared;
          }
        }
      }
    }
    EXPECT_GT(compared, 0);
  }
}

TEST(RewardValueOfFrozen, B4AllPairsMatchesBitForBit) {
  auto g = topo::make_b4();
  te::Problem pb(g, te::all_pairs_demands(g), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 2;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 1.8);
  expect_value_of_matches_frozen(pb, trace, "B4");
}

// A sparse generated WAN: many demands have fewer than k paths.
TEST(RewardValueOfFrozen, SparseWaxmanMatchesBitForBit) {
  scenario::WaxmanConfig wc;
  wc.n_nodes = 40;
  wc.n_links = 46;
  wc.seed = 9;
  auto g = scenario::make_waxman(wc);
  te::Problem pb(g, traffic::sample_demands(g, 200, 3), 4);
  int short_demands = 0;
  for (int d = 0; d < pb.num_demands(); ++d) short_demands += pb.num_paths(d) < 4;
  ASSERT_GT(short_demands, 0) << "the generated graph must leave some demands short of k paths";
  traffic::TraceConfig cfg;
  cfg.n_intervals = 2;
  cfg.seed = 4;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, 2.0);
  expect_value_of_matches_frozen(pb, trace, "Waxman");
}

}  // namespace
}  // namespace teal
