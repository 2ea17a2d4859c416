// Unit tests for the topology substrate: graph, shortest paths, Yen's KSP,
// generators (Table 1 counts), statistics (Table 3 / Fig 17).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <set>

#include "te/problem.h"
#include "topo/graph.h"
#include "topo/shortest_path.h"
#include "topo/topo_stats.h"
#include "topo/topology.h"
#include "traffic/traffic.h"

namespace teal {
namespace {

topo::Graph diamond() {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3, plus a direct long edge 0 -> 3.
  topo::Graph g("diamond");
  g.add_nodes(4);
  g.add_edge(0, 1, 10, 1.0);
  g.add_edge(1, 3, 10, 1.0);
  g.add_edge(0, 2, 10, 1.5);
  g.add_edge(2, 3, 10, 1.5);
  g.add_edge(0, 3, 10, 10.0);
  return g;
}

TEST(Graph, AddAndQuery) {
  topo::Graph g;
  g.add_nodes(3);
  auto e = g.add_edge(0, 1, 5.0, 2.0);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edge(e).src, 0);
  EXPECT_EQ(g.edge(e).dst, 1);
  EXPECT_DOUBLE_EQ(g.edge(e).capacity, 5.0);
  EXPECT_EQ(g.find_edge(0, 1), e);
  EXPECT_EQ(g.find_edge(1, 0), topo::kInvalidEdge);
}

TEST(Graph, AddLinkCreatesBothDirections) {
  topo::Graph g;
  g.add_nodes(2);
  g.add_link(0, 1, 7.0, 3.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_NE(g.find_edge(0, 1), topo::kInvalidEdge);
  EXPECT_NE(g.find_edge(1, 0), topo::kInvalidEdge);
}

TEST(Graph, RejectsInvalidEdges) {
  topo::Graph g;
  g.add_nodes(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(Graph, ScaleCapacities) {
  topo::Graph g = diamond();
  g.scale_capacities(0.5);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.capacity, 5.0);
}

TEST(Graph, StrongConnectivity) {
  topo::Graph g;
  g.add_nodes(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(g.is_strongly_connected());
  g.add_edge(1, 0, 1.0);
  EXPECT_TRUE(g.is_strongly_connected());
}

TEST(ShortestPath, PicksMinLatency) {
  auto g = diamond();
  auto p = topo::shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size(), 2u);  // 0->1->3, total 2.0
  EXPECT_DOUBLE_EQ(topo::path_latency(g, *p), 2.0);
  topo::validate_path(g, *p, 0, 3);
}

TEST(ShortestPath, UnreachableReturnsNullopt) {
  topo::Graph g;
  g.add_nodes(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(topo::shortest_path(g, 1, 0).has_value());
  EXPECT_FALSE(topo::shortest_path(g, 0, 2).has_value());
}

TEST(Yen, FindsKDistinctPathsInOrder) {
  auto g = diamond();
  auto paths = topo::yen_ksp(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 3u);  // only 3 simple paths exist
  double prev = 0.0;
  std::set<topo::Path> distinct;
  for (const auto& p : paths) {
    topo::validate_path(g, p, 0, 3);
    double lat = topo::path_latency(g, p);
    EXPECT_GE(lat, prev);
    prev = lat;
    distinct.insert(p);
  }
  EXPECT_EQ(distinct.size(), paths.size());
}

TEST(Yen, RespectsKLimit) {
  auto g = diamond();
  auto paths = topo::yen_ksp(g, 0, 3, 2);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(topo::path_latency(g, paths[0]), 2.0);
  EXPECT_DOUBLE_EQ(topo::path_latency(g, paths[1]), 3.0);
}

TEST(Yen, MatchesBruteForceOnGrid) {
  // 3x3 grid, unit latencies; compare Yen's k=6 against brute-force DFS
  // enumeration of simple paths sorted by latency.
  topo::Graph g;
  g.add_nodes(9);
  auto id = [](int r, int c) { return r * 3 + c; };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (c + 1 < 3) g.add_link(id(r, c), id(r, c + 1), 1.0, 1.0);
      if (r + 1 < 3) g.add_link(id(r, c), id(r + 1, c), 1.0, 1.0);
    }
  }
  auto yen = topo::yen_ksp(g, 0, 8, 6);
  ASSERT_EQ(yen.size(), 6u);

  // Brute force.
  std::vector<double> all_costs;
  std::vector<char> visited(9, 0);
  std::function<void(int, double)> dfs = [&](int v, double cost) {
    if (v == 8) {
      all_costs.push_back(cost);
      return;
    }
    visited[v] = 1;
    for (topo::EdgeId e : g.out_edges(v)) {
      int u = g.edge(e).dst;
      if (!visited[u]) dfs(u, cost + g.edge(e).latency);
    }
    visited[v] = 0;
  };
  dfs(0, 0.0);
  std::sort(all_costs.begin(), all_costs.end());
  for (std::size_t i = 0; i < yen.size(); ++i) {
    EXPECT_DOUBLE_EQ(topo::path_latency(g, yen[i]), all_costs[i]);
  }
}

TEST(Yen, PathsAreSimple) {
  auto g = topo::make_swan_like(1);
  auto paths = topo::yen_ksp(g, 0, g.num_nodes() - 1, 4);
  for (const auto& p : paths) {
    EXPECT_NO_THROW(topo::validate_path(g, p, 0, g.num_nodes() - 1));
  }
}

// ---------------------------------------------------------------------------
// Frozen reference: Yen's algorithm as it was before the reusable spur
// scratch — a full masked Dijkstra per spur over std::priority_queue, with
// both ban masks cleared per spur. Copied verbatim (renamed into this
// namespace); yen_ksp and te::Problem must reproduce its paths exactly.
namespace frozen {

struct SsspResult {
  std::vector<double> dist;
  std::vector<topo::EdgeId> parent_edge;
};

SsspResult dijkstra_impl(const topo::Graph& g, topo::NodeId src,
                               const std::vector<char>* node_banned,
                               const std::vector<char>* edge_banned) {
  using namespace topo;
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SsspResult res;
  res.dist.assign(n, kInf);
  res.parent_edge.assign(n, kInvalidEdge);
  if (node_banned && (*node_banned)[static_cast<std::size_t>(src)]) return res;

  using Item = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  res.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, v] = pq.top();
    pq.pop();
    if (d > res.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (EdgeId e : g.out_edges(v)) {
      if (edge_banned && (*edge_banned)[static_cast<std::size_t>(e)]) continue;
      const Edge& ed = g.edge(e);
      if (node_banned && (*node_banned)[static_cast<std::size_t>(ed.dst)]) continue;
      double nd = d + ed.latency;
      if (nd < res.dist[static_cast<std::size_t>(ed.dst)]) {
        res.dist[static_cast<std::size_t>(ed.dst)] = nd;
        res.parent_edge[static_cast<std::size_t>(ed.dst)] = e;
        pq.emplace(nd, ed.dst);
      }
    }
  }
  return res;
}

std::optional<topo::Path> extract_path(const topo::Graph& g, const SsspResult& sssp,
                                       topo::NodeId src, topo::NodeId dst) {
  using namespace topo;
  if (sssp.dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;
  Path p;
  NodeId v = dst;
  while (v != src) {
    EdgeId e = sssp.parent_edge[static_cast<std::size_t>(v)];
    if (e == kInvalidEdge) return std::nullopt;
    p.push_back(e);
    v = g.edge(e).src;
  }
  std::reverse(p.begin(), p.end());
  return p;
}

std::vector<topo::Path> yen_ksp(const topo::Graph& g, topo::NodeId src, topo::NodeId dst,
                                int k) {
  using namespace topo;
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;
  auto first = extract_path(g, dijkstra_impl(g, src, nullptr, nullptr), src, dst);
  if (!first) return result;
  result.push_back(std::move(*first));

  struct Candidate {
    double cost;
    Path path;
    bool operator>(const Candidate& o) const {
      if (cost != o.cost) return cost > o.cost;
      return path > o.path;  // deterministic tiebreak
    }
  };
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> candidates;
  std::set<Path> seen;  // paths already produced or enqueued
  seen.insert(result[0]);

  std::vector<char> node_banned(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<char> edge_banned(static_cast<std::size_t>(g.num_edges()), 0);

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Node sequence of the previous path: spur nodes are prev[0..len-1].src.
    std::vector<NodeId> prev_nodes;
    prev_nodes.push_back(src);
    for (EdgeId e : prev) prev_nodes.push_back(g.edge(e).dst);

    for (std::size_t i = 0; i < prev.size(); ++i) {
      NodeId spur = prev_nodes[i];
      // Root path: prev[0..i)
      std::fill(node_banned.begin(), node_banned.end(), 0);
      std::fill(edge_banned.begin(), edge_banned.end(), 0);
      // Ban edges that would duplicate an already-known path sharing this root.
      for (const Path& p : result) {
        if (p.size() >= i && std::equal(p.begin(), p.begin() + static_cast<long>(i),
                                        prev.begin())) {
          if (p.size() > i) edge_banned[static_cast<std::size_t>(p[i])] = 1;
        }
      }
      // Ban root-path nodes (except the spur node) to keep paths simple.
      for (std::size_t j = 0; j < i; ++j) {
        node_banned[static_cast<std::size_t>(prev_nodes[j])] = 1;
      }

      auto sssp = dijkstra_impl(g, spur, &node_banned, &edge_banned);
      auto spur_path = extract_path(g, sssp, spur, dst);
      if (!spur_path) continue;

      Path total(prev.begin(), prev.begin() + static_cast<long>(i));
      total.insert(total.end(), spur_path->begin(), spur_path->end());
      if (seen.insert(total).second) {
        candidates.push(Candidate{path_latency(g, total), std::move(total)});
      }
    }

    if (candidates.empty()) break;
    result.push_back(candidates.top().path);
    candidates.pop();
  }
  return result;
}

}  // namespace frozen

// Paths of every demand, through both yen_ksp entries (fresh scratch per
// call, and one scratch shared across all calls in order) and te::Problem's
// per-chunk scratch, must equal the frozen reference element for element.
void expect_ksp_matches_frozen(const topo::Graph& g, const std::vector<te::Demand>& demands,
                               int k) {
  topo::KspScratch shared;
  te::Problem pb(g, demands, k);
  int d = 0;
  for (const te::Demand& dm : demands) {
    const auto want = frozen::yen_ksp(g, dm.src, dm.dst, k);
    ASSERT_EQ(topo::yen_ksp(g, dm.src, dm.dst, k), want) << dm.src << "->" << dm.dst;
    ASSERT_EQ(topo::yen_ksp(g, dm.src, dm.dst, k, shared), want) << dm.src << "->" << dm.dst;
    if (want.empty()) continue;  // te::Problem drops unreachable pairs
    ASSERT_EQ(pb.demands()[static_cast<std::size_t>(d)].src, dm.src);
    ASSERT_EQ(pb.num_paths(d), static_cast<int>(want.size()));
    for (int i = 0; i < pb.num_paths(d); ++i) {
      const auto edges = pb.path_edges(pb.path_begin(d) + i);
      ASSERT_EQ(topo::Path(edges.begin(), edges.end()), want[static_cast<std::size_t>(i)])
          << "demand " << d << " path " << i;
    }
    ++d;
  }
  EXPECT_EQ(d, pb.num_demands());
}

// Unit latencies on a grid: nearly every spur search meets equal-distance
// ties, so any change to the heap's pop order or to early termination would
// pick a different (equally short) path.
TEST(Yen, MatchesFrozenReferenceOnUnitGrid) {
  constexpr int kSide = 6;
  topo::Graph g;
  g.add_nodes(kSide * kSide);
  auto id = [](int r, int c) { return r * kSide + c; };
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      if (c + 1 < kSide) g.add_link(id(r, c), id(r, c + 1), 1.0, 1.0);
      if (r + 1 < kSide) g.add_link(id(r, c), id(r + 1, c), 1.0, 1.0);
    }
  }
  g.add_edge(id(0, 0), id(kSide - 1, kSide - 1), 1.0, 0.0);  // a zero-latency shortcut
  expect_ksp_matches_frozen(g, te::all_pairs_demands(g), 8);
}

TEST(Yen, MatchesFrozenReferenceOnAsnSample) {
  auto g = topo::make_topology("ASN", 1);
  expect_ksp_matches_frozen(g, traffic::sample_demands(g, 200, 2), 4);
}

TEST(Topologies, Table1Counts) {
  EXPECT_EQ(topo::make_b4().num_nodes(), 12);
  EXPECT_EQ(topo::make_b4().num_edges(), 38);
  auto swan = topo::make_swan_like(1);
  EXPECT_EQ(swan.num_nodes(), 110);
  EXPECT_EQ(swan.num_edges(), 390);
  auto usc = topo::make_uscarrier_like(2);
  EXPECT_EQ(usc.num_nodes(), 158);
  EXPECT_EQ(usc.num_edges(), 378);
  auto kdl = topo::make_kdl_like(3);
  EXPECT_EQ(kdl.num_nodes(), 754);
  EXPECT_EQ(kdl.num_edges(), 1790);
  auto asn = topo::make_asn_like(4);
  EXPECT_EQ(asn.num_nodes(), 1739);
  EXPECT_EQ(asn.num_edges(), 8558);
}

TEST(Topologies, AllStronglyConnected) {
  EXPECT_TRUE(topo::make_b4().is_strongly_connected());
  EXPECT_TRUE(topo::make_swan_like(1).is_strongly_connected());
  EXPECT_TRUE(topo::make_uscarrier_like(2).is_strongly_connected());
  EXPECT_TRUE(topo::make_kdl_like(3).is_strongly_connected());
  EXPECT_TRUE(topo::make_asn_like(4).is_strongly_connected());
}

TEST(Topologies, DispatchByName) {
  EXPECT_EQ(topo::make_topology("B4").name(), "B4");
  EXPECT_EQ(topo::make_topology("ASN").num_nodes(), 1739);
  EXPECT_THROW(topo::make_topology("nope"), std::invalid_argument);
}

TEST(TopoStats, Table3Shapes) {
  // Hop statistics should land in the neighborhoods the paper reports
  // (Table 3); these are structure-matched synthetics, so assert ranges.
  auto b4 = topo::compute_stats(topo::make_b4());
  EXPECT_GT(b4.avg_shortest_path, 1.2);
  EXPECT_LT(b4.avg_shortest_path, 3.5);
  EXPECT_LE(b4.diameter, 6);

  auto usc = topo::compute_stats(topo::make_uscarrier_like(2));
  EXPECT_GT(usc.avg_shortest_path, 7.0);
  EXPECT_GT(usc.diameter, 18);

  auto asn = topo::compute_stats(topo::make_asn_like(4));
  EXPECT_LT(asn.avg_shortest_path, 5.0);  // star clusters => short paths
  EXPECT_LE(asn.diameter, 10);
}

TEST(TopoStats, RoutableDemandShare) {
  auto g = diamond();
  // One demand 0->3 with paths over edges {0,1} and {2,3}.
  std::vector<std::vector<topo::Path>> paths = {{{0, 1}, {2, 3}}};
  auto share = topo::routable_demand_share(g, paths);
  EXPECT_DOUBLE_EQ(share[0], 100.0);
  EXPECT_DOUBLE_EQ(share[2], 100.0);
  EXPECT_DOUBLE_EQ(share[4], 0.0);  // the direct 0->3 edge is unused
}

TEST(TopoStats, EmptyPathsGiveZeroShare) {
  auto g = diamond();
  auto share = topo::routable_demand_share(g, {});
  for (double s : share) EXPECT_DOUBLE_EQ(s, 0.0);
}

}  // namespace
}  // namespace teal
