#include "core/admm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "te/objective.h"
#include "util/thread_pool.h"

namespace teal::core {

int default_admm_iterations(int n_nodes) { return n_nodes < 100 ? 2 : 5; }

Admm::Admm(const te::Problem& pb, AdmmConfig cfg) : pb_(pb), cfg_(std::move(cfg)) {
  if (!(cfg_.rho > 0.0)) throw std::invalid_argument("Admm: rho must be positive");
  if (!cfg_.path_weight.empty() &&
      cfg_.path_weight.size() != static_cast<std::size_t>(pb.total_paths())) {
    throw std::invalid_argument("Admm: path_weight needs one entry per path");
  }
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a) const {
  Workspace ws;
  return fine_tune(tm, capacities, a, ws);
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a, Workspace& ws) const {
  const int nd = pb_.num_demands();
  return fine_tune(tm, capacities, a, ws,
                   ShardPlan::make(nd, auto_shard_count(nd, pb_.total_paths())));
}

Admm::Residuals Admm::fine_tune(const te::TrafficMatrix& tm,
                                const std::vector<double>& capacities,
                                te::Allocation& a, Workspace& ws, const ShardPlan& shards,
                                ShardStat* stats) const {
  const int nd = pb_.num_demands();
  const int ne = pb_.graph().num_edges();
  const int np = pb_.total_paths();
  if (tm.volume.size() != static_cast<std::size_t>(nd) ||
      capacities.size() != static_cast<std::size_t>(ne) ||
      a.split.size() != static_cast<std::size_t>(np)) {
    throw std::invalid_argument(
        "Admm::fine_tune: volumes, capacities and splits must have one entry per demand, "
        "edge and path");
  }
  const double rho = cfg_.rho;
  auto& pool = util::ThreadPool::global();

  // Normalize volumes/capacities by the mean capacity so rho=1 is a sensible
  // penalty on every topology.
  double scale = 1e-9;
  for (double c : capacities) scale += c;
  scale /= std::max<std::size_t>(1, capacities.size());
  auto& vol = ws.vol;
  vol.resize(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    vol[static_cast<std::size_t>(d)] = tm.volume[static_cast<std::size_t>(d)] / scale;
  }
  auto& cap = ws.cap;
  cap.resize(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    cap[static_cast<std::size_t>(e)] = capacities[static_cast<std::size_t>(e)] / scale;
  }

  // Total violation from per-demand split sums and per-edge loads, each
  // summed in ascending path order.
  auto violation = [&](const util::AVec<double>& demand_sum, const util::AVec<double>& load) {
    double v = 0.0;
    for (int d = 0; d < nd; ++d) v += std::max(0.0, demand_sum[static_cast<std::size_t>(d)] - 1.0);
    for (int e = 0; e < ne; ++e) {
      v += std::max(0.0, load[static_cast<std::size_t>(e)] - cap[static_cast<std::size_t>(e)]);
    }
    return v;
  };

  // Primal/dual state. z lives in the Problem's flat (path, edge) incidence
  // layout, so a path's z range is [incidence_begin(p), incidence_end(p)).
  auto& x = ws.x;
  x.assign(a.split.begin(), a.split.end());
  for (double& xv : x) xv = std::clamp(xv, 0.0, 1.0);
  auto& f = ws.f;
  f.resize(static_cast<std::size_t>(np));
  auto& den = ws.den;
  den.resize(static_cast<std::size_t>(np));
  auto& z = ws.z;
  z.resize(static_cast<std::size_t>(pb_.total_incidences()));
  auto& l4 = ws.l4;
  l4.assign(static_cast<std::size_t>(pb_.total_incidences()), 0.0);
  for (int p = 0; p < np; ++p) {
    const auto ps = static_cast<std::size_t>(p);
    const double dv = vol[static_cast<std::size_t>(pb_.demand_of_path(p))];
    f[ps] = x[ps] * dv;
    std::fill(z.begin() + pb_.incidence_begin(p), z.begin() + pb_.incidence_end(p), f[ps]);
    // The F-update's per-path denominator is fixed for the whole solve.
    den[ps] = rho * (1.0 + dv * dv * static_cast<double>(pb_.path_edges(p).size()));
  }
  auto& s1 = ws.s1;
  s1.resize(static_cast<std::size_t>(nd));
  auto& l1 = ws.l1;
  l1.assign(static_cast<std::size_t>(nd), 0.0);
  auto& x_sum = ws.x_sum;
  x_sum.resize(static_cast<std::size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    double sum = 0.0;
    for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
      sum += x[static_cast<std::size_t>(p)];
    }
    x_sum[static_cast<std::size_t>(d)] = sum;
    s1[static_cast<std::size_t>(d)] = std::max(0.0, 1.0 - sum);
  }
  // z_sum starts as each edge's load; `load` keeps the load of the latest
  // iterate for the residual.
  auto& z_sum = ws.z_sum;
  z_sum.resize(static_cast<std::size_t>(ne));
  auto& load = ws.load;
  load.resize(static_cast<std::size_t>(ne));
  for (int e = 0; e < ne; ++e) {
    double sum = 0.0;
    for (int zi : pb_.incidences_on_edge(e)) sum += z[static_cast<std::size_t>(zi)];
    z_sum[static_cast<std::size_t>(e)] = load[static_cast<std::size_t>(e)] = sum;
  }
  auto& s3 = ws.s3;
  s3.resize(static_cast<std::size_t>(ne));
  auto& l3 = ws.l3;
  l3.assign(static_cast<std::size_t>(ne), 0.0);
  for (int e = 0; e < ne; ++e) {
    s3[static_cast<std::size_t>(e)] =
        std::max(0.0, cap[static_cast<std::size_t>(e)] - z_sum[static_cast<std::size_t>(e)]);
  }
  Residuals res;
  res.before = violation(x_sum, load);

  const bool weighted = !cfg_.path_weight.empty();
  auto& head = ws.num_head;
  head.resize(static_cast<std::size_t>(np));
  auto& tail = ws.num_tail;
  tail.resize(static_cast<std::size_t>(np));

  for (int it = 0; it < cfg_.iterations; ++it) {
    // ---- Demand block, fanned over the demand shards: the previous
    // iteration's s1-update and l1 ascent, then the F-update — a per-demand
    // nonnegative QP solved by coordinate descent — then f_p = x_p * vol_d
    // for the edge block. Each shard touches only its own demands' entries
    // and reads z/l4 of its own paths, which hold still this block.
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      for (int d = d0; d < d1; ++d) {
        const auto di = static_cast<std::size_t>(d);
        const double dv = vol[di];
        if (it > 0) {
          s1[di] = std::max(0.0, 1.0 - x_sum[di] - l1[di] / rho);
          l1[di] += rho * (x_sum[di] + s1[di] - 1.0);
        }
        // The numerator w*dv - l1 - dv*Σl4 - rho*rest + rho*dv*Σz changes
        // across sweeps only through rest, so its head (before rest) and
        // tail (after it) are formed once per iteration, in the same order.
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
          const auto ps = static_cast<std::size_t>(p);
          double sum_l4 = 0.0, sum_z = 0.0;
          for (int zi = pb_.incidence_begin(p); zi < pb_.incidence_end(p); ++zi) {
            sum_l4 += l4[static_cast<std::size_t>(zi)];
            sum_z += z[static_cast<std::size_t>(zi)];
          }
          const double w = weighted ? cfg_.path_weight[ps] : 1.0;
          head[ps] = w * dv - l1[di] - dv * sum_l4;
          tail[ps] = rho * dv * sum_z;
        }
        for (int sweep = 0; sweep < cfg_.coord_sweeps; ++sweep) {
          for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
            const auto ps = static_cast<std::size_t>(p);
            const double rest = x_sum[di] - x[ps] + s1[di] - 1.0;
            const double num = head[ps] - rho * rest + tail[ps];
            const double x_new = std::clamp(num / den[ps], 0.0, 1.0);
            x_sum[di] += x_new - x[ps];
            x[ps] = x_new;
          }
        }
        for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
          f[static_cast<std::size_t>(p)] = x[static_cast<std::size_t>(p)] * dv;
        }
      }
    });

    // ---- Coupled link-level block, fused per edge: s3-update, exact
    // z-update, l3 dual ascent, then the l4 ascent of the edge's own
    // incidences. The z-update reads f of *other* demands' paths — the
    // coupling that makes this an edge pass, not a demand shard. Per-edge
    // rows are independent and deterministic (incidence order is fixed), so
    // any chunking is bit-identical. The per-edge quadratic has Hessian
    // rho*(I + 1 1ᵀ); by Sherman-Morrison, with a_p = f_p + l4_p/rho -
    // l3/rho + cap - s3, the minimizer is z_p = a_p - S with S = (sum_p a_p)
    // / (n + 1). z is unbounded, so this block minimization is exact —
    // important for ADMM convergence.
    pool.parallel_chunks(static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e_) {
      for (std::size_t ei = b; ei < e_; ++ei) {
        s3[ei] = std::max(0.0, cap[ei] - z_sum[ei] - l3[ei] / rho);
        const auto paths = pb_.paths_on_edge(static_cast<topo::EdgeId>(ei));
        const auto incs = pb_.incidences_on_edge(static_cast<topo::EdgeId>(ei));
        double f_sum = 0.0;
        if (!paths.empty()) {
          const double offset = -l3[ei] / rho + cap[ei] - s3[ei];
          double a_sum = 0.0;
          for (std::size_t j = 0; j < paths.size(); ++j) {
            const auto zi = static_cast<std::size_t>(incs[j]);
            const double fp = f[static_cast<std::size_t>(paths[j])];
            f_sum += fp;
            // Stash a_p in z temporarily.
            z[zi] = fp + l4[zi] / rho + offset;
            a_sum += z[zi];
          }
          const double S = a_sum / (static_cast<double>(paths.size()) + 1.0);
          for (std::size_t j = 0; j < paths.size(); ++j) {
            const auto zi = static_cast<std::size_t>(incs[j]);
            z[zi] -= S;
            l4[zi] += rho * (f[static_cast<std::size_t>(paths[j])] - z[zi]);
          }
          z_sum[ei] = a_sum - static_cast<double>(paths.size()) * S;
        }
        load[ei] = f_sum;
        l3[ei] += rho * (z_sum[ei] + s3[ei] - cap[ei]);
      }
    });
  }

  // ADMM iterates are not exactly feasible for the *demand* constraint; clamp
  // the per-demand sums (cheap and local) but keep capacity handling to the
  // evaluation semantics, as the paper does. Sharded: each demand's clamp and
  // split writeback touch only its own path range. x_sum is replaced by the
  // ordered sum the residual counts.
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    for (int d = d0; d < d1; ++d) {
      const auto di = static_cast<std::size_t>(d);
      const double running = x_sum[di];
      double sum = 0.0;
      for (int p = pb_.path_begin(d); p < pb_.path_end(d); ++p) {
        const auto ps = static_cast<std::size_t>(p);
        sum += x[ps];
        a.split[ps] = running > 1.0 ? x[ps] / running : x[ps];
      }
      x_sum[di] = sum;
    }
  });
  res.after = violation(x_sum, load);
  return res;
}

}  // namespace teal::core
