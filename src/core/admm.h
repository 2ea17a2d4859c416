// admm.h — ADMM solution fine-tuning (§3.4, Appendix C).
//
// Teal's neural networks output split ratios that may violate link
// capacities. A handful of ADMM iterations, warm-started from the network
// output, pushes the solution toward the feasible region while improving the
// TE objective. Following Appendix C, the TE LP is decoupled by introducing
//   * per-(path, edge) auxiliary variables z_pe with F_p * d - z_pe = 0,
//   * slack s1_d for the demand constraints and s3_e for capacity, and
//   * multipliers lambda1_d, lambda3_e, lambda4_pe with penalty rho.
// Each ADMM iteration alternates exact minimizations of the augmented
// Lagrangian in two stages: a per-*demand* block (the previous iteration's
// s1/l1 updates, then the F-update — a tiny nonnegative QP solved by
// coordinate descent) and a per-*edge* block (the s3-update, the exact
// z-update and the l3 and l4 dual ascents) — both embarrassingly parallel,
// which is why the paper runs ADMM on the GPU. Per §4 the iteration count
// is 2 for topologies with < 100 nodes and 5 otherwise.
//
// Used alone from a cold start, ADMM needs far too many iterations to reach
// a good solution (§3.4) — the fig14 ablation bench demonstrates exactly
// that by comparing cold- and warm-started runs.
#pragma once

#include <vector>

#include "core/shard.h"
#include "te/problem.h"
#include "util/arena.h"

namespace teal::core {

struct AdmmConfig {
  int iterations = 5;        // 2 for < 100 nodes, 5 otherwise (§4)
  double rho = 5.0;          // penalty coefficient (volumes are normalized)
  int coord_sweeps = 4;      // coordinate-descent sweeps inside F/z updates
  std::vector<double> path_weight;  // optional per-path objective weights
};

// Returns the paper's per-topology default iteration count.
int default_admm_iterations(int n_nodes);

class Admm {
 public:
  // Reads the (path, edge) incidence layout from `pb`, which must outlive
  // the Admm; reusable across solves on the same Problem. Throws
  // std::invalid_argument unless rho > 0 and path_weight is empty or holds
  // one entry per path.
  explicit Admm(const te::Problem& pb, AdmmConfig cfg = {});

  // Fine-tunes `a` in place for the given matrix/capacities. Returns the
  // total constraint violation — demand oversubscription plus capacity
  // overload, in normalized units — of the clamped input and of the last
  // iterate before the final demand clamp, letting callers and tests check
  // monotone improvement. Throws std::invalid_argument unless tm, capacities
  // and a hold one entry per demand, edge and path.
  struct Residuals {
    double before = 0.0;
    double after = 0.0;
  };

  // Per-solve primal/dual state. Passing the same Workspace to repeated
  // fine_tune() calls reuses every buffer (allocation-free once warm); every
  // entry is fully re-initialized per call, so reuse never changes results.
  // Distinct Workspaces make concurrent fine_tune() calls on one Admm safe.
  // Buffers are arena-aware (util::AVec): a workspace sized under a bound
  // util::Arena draws all sixteen from the arena in one cold pass.
  struct Workspace {
    util::AVec<double> vol, cap;           // normalized volumes/capacities
    util::AVec<double> x, x_sum;           // split ratios and per-demand sums
    util::AVec<double> f, den;             // per path: x_p * vol_d, F-update denominator
    util::AVec<double> num_head, num_tail; // per path: F-update numerator terms
    util::AVec<double> z, z_sum, l4;       // per-(path,edge) auxiliaries
    util::AVec<double> s1, l1, s3, l3;     // slacks and multipliers
    util::AVec<double> load;               // per-edge load (violation check)
  };

  // Auto demand-shard plan (core::auto_shard_count).
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a, Workspace& ws) const;

  // Demand-sharded fine-tune. The per-demand block — the s1/l1 updates and
  // the F-update (coordinate descent over [demand_begin, demand_end)) — and
  // the final clamp fan out over `shards`; the coupled link-level block
  // (per-edge s3/z/l3/l4, which reads paths of *other* demands through the
  // edge incidence lists) runs as a per-edge pool pass, and the residual
  // reductions run sequentially on the calling thread. The resulting
  // allocation is bit-identical for every shard plan (tests/shard_test.cpp).
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a, Workspace& ws, const ShardPlan& shards,
                      ShardStat* stats = nullptr) const;

  // Convenience overload allocating a throwaway workspace.
  Residuals fine_tune(const te::TrafficMatrix& tm, const std::vector<double>& capacities,
                      te::Allocation& a) const;

  const AdmmConfig& config() const { return cfg_; }

 private:
  const te::Problem& pb_;
  AdmmConfig cfg_;
};

}  // namespace teal::core
