// reward.h — the TE "environment" used to train Teal with multi-agent RL.
//
// COMA* (Appendix B) needs, for every agent i (= demand), the advantage
//   A_i = R(s, a) - E_{a'_i ~ pi}[ R(s, (a_-i, a'_i)) ]:
// the global reward of the joint action minus a counterfactual baseline where
// only agent i resamples its action. Both terms share everything except
// demand i's contribution, so only the *difference* of i-local terms matters.
// RewardSimulator exploits this: it fixes the joint edge loads once per step,
// and evaluates candidate actions of one demand with an edge-local estimate:
//
//   value_i(a'_i) = sum over i's paths of f'_p * min_{e in p} factor'(e)
//                 + sum over touched edges of others'(e) * factor'(e)
//
// where factor'(e) = min(1, c_e / load'_e) with load' = joint load with i's
// contribution replaced, and others'(e) is the intended volume of all other
// flows on e. The second term charges agent i for the traffic it squeezes
// out of shared links — the counterfactual contribution COMA estimates. The
// exact global objective (used as the *reported* reward and for evaluation)
// is computed by the te::objective functions.
//
// Thread safety: value_of() is const and uses caller-provided scratch, so the
// trainer evaluates all demands' counterfactuals in parallel.
#pragma once

#include <vector>

#include "nn/mat.h"
#include "te/objective.h"
#include "te/problem.h"

namespace teal::core {

class RewardSimulator {
 public:
  RewardSimulator(const te::Problem& pb, te::Objective obj, double latency_penalty = 0.5);

  // Fixes the per-interval inputs and the joint action (a (D, k) split
  // matrix). Recomputes joint loads and, per demand, the loads, capacities
  // and "others" volumes of the demand's own edges. `tm` is held by
  // reference until the next set_state; `capacities` and `splits` are read
  // here only (nothing is copied wholesale). Allocation-free once warm (all
  // scratch lives in member buffers), so the batched trainer can call it
  // every rollout without breaking the zero-alloc training-step contract.
  void set_state(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                 const nn::Mat& splits);

  // Per-thread scratch for value_of, sized once for the widest demand.
  struct Scratch {
    std::vector<double> delta;  // per unique edge of one demand, zero outside calls
    std::vector<int> touched;   // positions into the demand's unique edges
  };
  Scratch make_scratch() const;

  // Edge-local value of demand d taking candidate splits (k doubles; entries
  // beyond the demand's path count are ignored). Comparable across candidates
  // of the same demand within one set_state().
  double value_of(int d, const double* candidate, Scratch& scratch) const;

  // Exact global objective of the current joint action.
  double global_reward() const;

  const te::Problem& problem() const { return pb_; }

 private:
  // State of one (demand, unique edge) pair under the current joint action.
  struct EdgeState {
    double load;    // joint intended load on the edge
    double cap;     // edge capacity
    double others;  // max(0, load - this demand's own current volume on it)
  };

  const te::Problem& pb_;
  te::Objective obj_;
  double latency_penalty_;
  std::vector<double> path_weight_;  // latency weights (1.0 for total flow)

  // Per-demand edge index, built once by the constructor. Demand d's unique
  // edges, in first-occurrence order (paths in slot order, edges in path
  // order), are uedge_[uoff_[d] .. uoff_[d+1]). Path p's edges are
  // pos_[pos_off_[p] .. pos_off_[p+1]), each the edge's position within its
  // demand's unique list.
  std::vector<int> uoff_;
  std::vector<topo::EdgeId> uedge_;
  std::vector<int> pos_off_;
  std::vector<int> pos_;
  int max_unique_ = 0;       // widest demand's unique-edge count
  int max_occurrences_ = 0;  // widest demand's path-edge count

  const te::TrafficMatrix* tm_ = nullptr;
  te::Allocation alloc_;            // joint action as a flat allocation (reused)
  std::vector<double> load_;        // joint intended load per edge
  std::vector<double> factor_;      // per-edge survival factors (reused)
  std::vector<double> old_flow_;    // per path: current split * volume
  std::vector<EdgeState> ustate_;   // per (demand, unique edge), uedge_'s layout
  double global_reward_ = 0.0;
};

}  // namespace teal::core
