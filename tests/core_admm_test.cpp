// Tests for ADMM fine-tuning (§3.4, Appendix C): violation reduction,
// demand-constraint preservation, objective improvement from a warm start,
// and the cold-start observation that motivates warm-starting.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/admm.h"
#include "te/objective.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

te::Problem b4_problem(double util = 1.5, traffic::Trace* trace_out = nullptr) {
  auto g = topo::make_b4();
  te::Problem pb(std::move(g), te::all_pairs_demands(topo::make_b4()), 4);
  traffic::TraceConfig cfg;
  cfg.n_intervals = 5;
  auto trace = traffic::generate_trace(pb, cfg);
  traffic::calibrate_capacities(pb, trace, util);
  if (trace_out) *trace_out = trace;
  return pb;
}

// An intentionally violating allocation: every demand fully on its shortest
// path (overloads popular links when demand exceeds capacity).
te::Allocation violating_allocation(const te::Problem& pb) {
  return pb.shortest_path_allocation();
}

TEST(Admm, DefaultIterationCountsFollowPaper) {
  EXPECT_EQ(core::default_admm_iterations(12), 2);
  EXPECT_EQ(core::default_admm_iterations(99), 2);
  EXPECT_EQ(core::default_admm_iterations(100), 5);
  EXPECT_EQ(core::default_admm_iterations(1739), 5);
}

TEST(Admm, ReducesConstraintViolation) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);  // heavily oversubscribed
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm admm(pb, cfg);
  auto a = violating_allocation(pb);
  auto res = admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_GT(res.before, 0.0);
  EXPECT_LT(res.after, res.before);
}

TEST(Admm, KeepsDemandConstraint) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::Admm admm(pb, {});
  auto a = violating_allocation(pb);
  admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_NO_THROW(pb.validate_allocation(a, 1e-6));
}

TEST(Admm, ImprovesFeasibleFlowOfOverloadedStart) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = 5;
  core::Admm admm(pb, cfg);
  const auto& tm = trace.at(0);
  auto raw = violating_allocation(pb);
  double before = te::total_feasible_flow(pb, tm, raw);
  auto tuned = raw;
  admm.fine_tune(tm, pb.capacities(), tuned);
  double after = te::total_feasible_flow(pb, tm, tuned);
  // Rebalancing away from overloaded shortest paths must help under heavy
  // oversubscription.
  EXPECT_GT(after, before);
}

TEST(Admm, MoreIterationsNoWorseViolation) {
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  const auto& tm = trace.at(0);
  double prev = 1e18;
  for (int iters : {1, 3, 8, 20}) {
    core::AdmmConfig cfg;
    cfg.iterations = iters;
    core::Admm admm(pb, cfg);
    auto a = violating_allocation(pb);
    auto res = admm.fine_tune(tm, pb.capacities(), a);
    EXPECT_LE(res.after, prev * 1.05);  // monotone up to small numeric noise
    prev = res.after;
  }
}

TEST(Admm, ColdStartNeedsManyIterations) {
  // §3.4: "using ADMM alone does not accelerate TE optimization" — from a
  // cold (uniform) start, 5 iterations leave substantially more violation
  // than 60 iterations do. This is the motivation for warm-starting.
  traffic::Trace trace;
  auto pb = b4_problem(3.0, &trace);
  const auto& tm = trace.at(0);
  te::Allocation uniform = pb.empty_allocation();
  for (int d = 0; d < pb.num_demands(); ++d) {
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      uniform.split[static_cast<std::size_t>(p)] =
          1.0 / static_cast<double>(pb.num_paths(d));
    }
  }
  core::AdmmConfig few;
  few.iterations = 5;
  auto a_few = uniform;
  auto res_few = core::Admm(pb, few).fine_tune(tm, pb.capacities(), a_few);

  core::AdmmConfig many;
  many.iterations = 60;
  auto a_many = uniform;
  auto res_many = core::Admm(pb, many).fine_tune(tm, pb.capacities(), a_many);

  EXPECT_LT(res_many.after, res_few.after);
}

TEST(Admm, RespectsCapacityOverride) {
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::AdmmConfig cfg;
  cfg.iterations = 30;
  core::Admm admm(pb, cfg);
  auto caps = pb.capacities();
  caps[0] = 0.0;  // failed link
  auto a = violating_allocation(pb);
  admm.fine_tune(trace.at(0), caps, a);
  // Traffic on the failed edge should be (nearly) removed.
  auto load = te::edge_loads(pb, trace.at(0), a);
  double total = trace.at(0).total();
  EXPECT_LT(load[0], 0.05 * total);
}

TEST(Admm, NoViolationIsStable) {
  // Starting from an allocation far inside the feasible region, ADMM should
  // not introduce violations.
  traffic::Trace trace;
  auto pb = b4_problem(1.2, &trace);
  core::Admm admm(pb, {});
  auto a = pb.empty_allocation();  // route nothing
  auto res = admm.fine_tune(trace.at(0), pb.capacities(), a);
  EXPECT_DOUBLE_EQ(res.before, 0.0);
  // And it should start routing traffic (objective pressure), not stay at 0.
  double routed = 0.0;
  for (double s : a.split) routed += s;
  EXPECT_GT(routed, 0.0);
}

TEST(Admm, RejectsMisshapedInputs) {
  // Every input the solve indexes by path, demand or edge id is checked up
  // front, as is the penalty it divides by.
  traffic::Trace trace;
  auto pb = b4_problem(2.0, &trace);
  core::AdmmConfig bad_weights;
  bad_weights.path_weight.assign(static_cast<std::size_t>(pb.total_paths()) - 1, 1.0);
  EXPECT_THROW(core::Admm(pb, bad_weights), std::invalid_argument);
  for (double rho : {0.0, -1.0, std::nan("")}) {
    core::AdmmConfig bad_rho;
    bad_rho.rho = rho;
    EXPECT_THROW(core::Admm(pb, bad_rho), std::invalid_argument) << rho;
  }

  const core::Admm admm(pb, {});
  const auto& tm = trace.at(0);
  const auto caps = pb.capacities();
  auto short_split = pb.shortest_path_allocation();
  short_split.split.pop_back();
  EXPECT_THROW(admm.fine_tune(tm, caps, short_split), std::invalid_argument);
  auto a = pb.shortest_path_allocation();
  te::TrafficMatrix short_tm = tm;
  short_tm.volume.pop_back();
  EXPECT_THROW(admm.fine_tune(short_tm, caps, a), std::invalid_argument);
  const std::vector<double> short_caps(caps.begin(), caps.end() - 1);
  EXPECT_THROW(admm.fine_tune(tm, short_caps, a), std::invalid_argument);
  // The well-shaped call still runs.
  EXPECT_NO_THROW(admm.fine_tune(tm, caps, a));
}

}  // namespace
}  // namespace teal
