#include "te/problem.h"

#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.h"

namespace teal::te {

double TrafficMatrix::total() const {
  return std::accumulate(volume.begin(), volume.end(), 0.0);
}

Problem::Problem(topo::Graph g, std::vector<Demand> demands, int k_paths)
    : graph_(std::move(g)), k_paths_(k_paths) {
  if (k_paths <= 0) throw std::invalid_argument("Problem: k_paths must be positive");
  // The global path id space is int-indexed (path_begin/path_end and every
  // solver's flattened arrays). A generated graph at 10x-ASN scale with an
  // unbounded demand set could overflow it; fail loudly up front instead of
  // silently wrapping ids after the expensive path precomputation.
  const long long max_paths =
      static_cast<long long>(demands.size()) * static_cast<long long>(k_paths);
  if (max_paths > static_cast<long long>(std::numeric_limits<int>::max())) {
    throw std::invalid_argument(
        "Problem: demands * k_paths = " + std::to_string(max_paths) +
        " exceeds the int path-id space; cap the demand sample "
        "(traffic::sample_demands) or lower k_paths");
  }

  // Yen's algorithm per demand, parallelized with one reusable spur-search
  // scratch per pool chunk (path precomputation is a one-time cost excluded
  // from the computation-time metric, §5.1).
  std::vector<std::vector<topo::Path>> per_demand(demands.size());
  util::ThreadPool::global().parallel_chunks(
      demands.size(), [&](std::size_t i0, std::size_t i1) {
        topo::KspScratch scratch;
        for (std::size_t i = i0; i < i1; ++i) {
          per_demand[i] =
              topo::yen_ksp(graph_, demands[i].src, demands[i].dst, k_paths, scratch);
        }
      });

  path_offset_.push_back(0);
  path_inc_offset_.push_back(0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (per_demand[i].empty()) continue;  // unreachable pair: drop
    demands_.push_back(demands[i]);
    for (const auto& p : per_demand[i]) {
      path_demand_.push_back(static_cast<int>(demands_.size()) - 1);
      path_latency_.push_back(topo::path_latency(graph_, p));
      path_edge_.insert(path_edge_.end(), p.begin(), p.end());
      path_inc_offset_.push_back(static_cast<int>(path_edge_.size()));
    }
    path_offset_.push_back(static_cast<int>(path_demand_.size()));
  }

  // Edge -> path lists by counting sort over the incidences in path order,
  // so every edge's paths come out ascending.
  edge_offset_.assign(static_cast<std::size_t>(graph_.num_edges()) + 1, 0);
  for (topo::EdgeId e : path_edge_) ++edge_offset_[static_cast<std::size_t>(e) + 1];
  std::partial_sum(edge_offset_.begin(), edge_offset_.end(), edge_offset_.begin());
  edge_path_.resize(path_edge_.size());
  edge_inc_.resize(path_edge_.size());
  std::vector<int> fill(edge_offset_.begin(), edge_offset_.end() - 1);
  for (int p = 0; p < total_paths(); ++p) {
    for (int i = incidence_begin(p); i < incidence_end(p); ++i) {
      const int slot = fill[static_cast<std::size_t>(path_edge_[static_cast<std::size_t>(i)])]++;
      edge_path_[static_cast<std::size_t>(slot)] = p;
      edge_inc_[static_cast<std::size_t>(slot)] = i;
    }
  }
}

Allocation Problem::shortest_path_allocation() const {
  Allocation a = empty_allocation();
  for (int d = 0; d < num_demands(); ++d) {
    a.split[static_cast<std::size_t>(path_begin(d))] = 1.0;  // Yen returns shortest first
  }
  return a;
}

void Problem::validate_allocation(const Allocation& a, double tol) const {
  if (static_cast<int>(a.split.size()) != total_paths()) {
    throw std::invalid_argument("validate_allocation: size mismatch");
  }
  for (double s : a.split) {
    if (s < -tol) throw std::invalid_argument("validate_allocation: negative split");
  }
  for (int d = 0; d < num_demands(); ++d) {
    double sum = 0.0;
    for (int p = path_begin(d); p < path_end(d); ++p) {
      sum += a.split[static_cast<std::size_t>(p)];
    }
    if (sum > 1.0 + tol) {
      throw std::invalid_argument("validate_allocation: demand oversubscribed");
    }
  }
}

std::vector<double> Problem::capacities() const {
  std::vector<double> c;
  capacities_into(c);
  return c;
}

void Problem::capacities_into(std::vector<double>& out) const {
  out.resize(static_cast<std::size_t>(graph_.num_edges()));
  for (topo::EdgeId e = 0; e < graph_.num_edges(); ++e) {
    out[static_cast<std::size_t>(e)] = graph_.edge(e).capacity;
  }
}

std::vector<Demand> all_pairs_demands(const topo::Graph& g) {
  std::vector<Demand> ds;
  ds.reserve(static_cast<std::size_t>(g.num_nodes()) *
             static_cast<std::size_t>(g.num_nodes() - 1));
  for (topo::NodeId s = 0; s < g.num_nodes(); ++s) {
    for (topo::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t) ds.push_back(Demand{s, t});
    }
  }
  return ds;
}

}  // namespace teal::te
