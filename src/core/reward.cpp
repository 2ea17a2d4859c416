#include "core/reward.h"

#include <algorithm>
#include <cmath>

#include "core/model.h"
#include "lp/path_lp.h"

namespace teal::core {

RewardSimulator::RewardSimulator(const te::Problem& pb, te::Objective obj,
                                 double latency_penalty)
    : pb_(pb), obj_(obj), latency_penalty_(latency_penalty) {
  if (obj == te::Objective::kLatencyPenalizedFlow) {
    path_weight_ = lp::latency_penalty_weights(pb, latency_penalty);
  } else {
    path_weight_.assign(static_cast<std::size_t>(pb.total_paths()), 1.0);
  }

  // Per-demand edge index. `slot_of` maps an edge id to its position in the
  // current demand's unique list (-1 = not yet seen); only the entries a
  // demand set are reset before the next one.
  std::vector<int> slot_of(static_cast<std::size_t>(pb.graph().num_edges()), -1);
  uoff_.reserve(static_cast<std::size_t>(pb.num_demands()) + 1);
  pos_off_.reserve(static_cast<std::size_t>(pb.total_paths()) + 1);
  uoff_.push_back(0);
  pos_off_.push_back(0);
  for (int d = 0; d < pb.num_demands(); ++d) {
    const int u0 = static_cast<int>(uedge_.size());
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p) {
      for (topo::EdgeId e : pb.path_edges(p)) {
        int& u = slot_of[static_cast<std::size_t>(e)];
        if (u < 0) {
          u = static_cast<int>(uedge_.size()) - u0;
          uedge_.push_back(e);
        }
        pos_.push_back(u);
      }
      pos_off_.push_back(static_cast<int>(pos_.size()));
    }
    for (std::size_t i = static_cast<std::size_t>(u0); i < uedge_.size(); ++i) {
      slot_of[static_cast<std::size_t>(uedge_[i])] = -1;
    }
    uoff_.push_back(static_cast<int>(uedge_.size()));
    max_unique_ = std::max(max_unique_, uoff_[d + 1] - u0);
    max_occurrences_ = std::max(max_occurrences_, pos_off_[pb.path_end(d)] -
                                                      pos_off_[pb.path_begin(d)]);
  }
  ustate_.resize(uedge_.size());
  old_flow_.resize(static_cast<std::size_t>(pb.total_paths()));
}

void RewardSimulator::set_state(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                const nn::Mat& splits) {
  tm_ = &tm;
  allocation_from_splits_into(pb_, splits, alloc_);
  te::edge_loads_into(pb_, tm, alloc_, load_);
  // Global reward through the shared *_from_loads evaluation forms — the
  // same arithmetic objective_score runs, with every buffer reused.
  switch (obj_) {
    case te::Objective::kTotalFlow:
      global_reward_ =
          te::total_feasible_flow_from_loads(pb_, tm, alloc_, capacities, load_, factor_);
      break;
    case te::Objective::kMinMaxLinkUtil:
      global_reward_ = -te::max_link_utilization_from_loads(capacities, load_);
      break;
    case te::Objective::kLatencyPenalizedFlow:
      global_reward_ = te::latency_penalized_flow_from_loads(
          pb_, tm, alloc_, latency_penalty_, capacities, load_, factor_);
      break;
  }

  // Per (demand, unique edge): the demand's own current volume on the edge,
  // summed over its path occurrences in (path, edge) order, then the others'
  // volume max(0, load - own). value_of reads these instead of rescanning.
  const int* off = pos_off_.data();
  const int* pos = pos_.data();
  for (int d = 0; d < pb_.num_demands(); ++d) {
    const double vol = tm.volume[static_cast<std::size_t>(d)];
    const int u0 = uoff_[static_cast<std::size_t>(d)];
    const int n_unique = uoff_[static_cast<std::size_t>(d) + 1] - u0;
    EdgeState* st = ustate_.data() + u0;
    for (int u = 0; u < n_unique; ++u) {
      const auto es = static_cast<std::size_t>(uedge_[static_cast<std::size_t>(u0 + u)]);
      st[u] = EdgeState{load_[es], capacities[es], 0.0};
    }
    for (int p = pb_.path_begin(d), slot = 0; p < pb_.path_end(d); ++p, ++slot) {
      const double old_f = splits.at(d, slot) * vol;
      old_flow_[static_cast<std::size_t>(p)] = old_f;
      for (int i = off[p]; i < off[p + 1]; ++i) st[pos[i]].others += old_f;
    }
    for (int u = 0; u < n_unique; ++u) st[u].others = std::max(0.0, st[u].load - st[u].others);
  }
}

RewardSimulator::Scratch RewardSimulator::make_scratch() const {
  Scratch s;
  s.delta.assign(static_cast<std::size_t>(max_unique_), 0.0);
  s.touched.reserve(static_cast<std::size_t>(max_occurrences_));
  return s;
}

double RewardSimulator::value_of(int d, const double* candidate, Scratch& scratch) const {
  const double vol = tm_->volume[static_cast<std::size_t>(d)];
  const EdgeState* st = ustate_.data() + uoff_[static_cast<std::size_t>(d)];
  const int* off = pos_off_.data();
  const int* pos = pos_.data();
  double* delta = scratch.delta.data();
  std::vector<int>& touched = scratch.touched;
  touched.clear();
  const int p0 = pb_.path_begin(d);
  const int p1 = pb_.path_end(d);

  // Replace demand d's contribution on every edge its paths touch. A position
  // is listed in `touched` each time it is reached while its accumulated
  // delta is exactly 0.0 — in particular once per path occurrence when the
  // candidate equals the current splits (every delta is 0.0), so edges shared
  // by several of the demand's paths then count their externality once per
  // occurrence below.
  for (int p = p0, slot = 0; p < p1; ++p, ++slot) {
    const double new_f = std::max(0.0, candidate[slot]) * vol;
    const double dl = new_f - old_flow_[static_cast<std::size_t>(p)];
    for (int i = off[p]; i < off[p + 1]; ++i) {
      const int u = pos[i];
      if (delta[u] == 0.0) touched.push_back(u);
      delta[u] += dl;
    }
  }

  auto factor_at = [](double c, double load) {
    if (load <= c) return 1.0;
    return load > 0.0 ? c / load : 1.0;
  };

  double value = 0.0;
  if (obj_ == te::Objective::kMinMaxLinkUtil) {
    // Local MLU proxy: the worst utilization among edges this demand can see.
    double worst = 0.0;
    for (int i = off[p0]; i < off[p1]; ++i) {
      const int u = pos[i];
      const double c = st[u].cap;
      const double ld = st[u].load + delta[u];
      worst = std::max(worst, c > 0.0 ? ld / c : (ld > 0.0 ? 1e9 : 0.0));
    }
    value = -worst;
  } else {
    // Own delivered (latency-weighted if applicable).
    for (int p = p0, slot = 0; p < p1; ++p, ++slot) {
      const double f = std::max(0.0, candidate[slot]) * vol;
      if (f <= 0.0) continue;
      double surv = 1.0;
      for (int i = off[p]; i < off[p + 1]; ++i) {
        const int u = pos[i];
        surv = std::min(surv, factor_at(st[u].cap, st[u].load + delta[u]));
      }
      value += path_weight_[static_cast<std::size_t>(p)] * f * surv;
    }
    // Externality on other flows sharing the touched edges: their intended
    // volume under the current joint action, scaled by the (possibly
    // degraded) survival factor.
    for (int u : touched) value += st[u].others * factor_at(st[u].cap, st[u].load + delta[u]);
  }

  for (int u : touched) delta[u] = 0.0;
  return value;
}

double RewardSimulator::global_reward() const { return global_reward_; }

}  // namespace teal::core
