#include "topo/shortest_path.h"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_set>

namespace teal::topo {

namespace {

// Starts a spur search: sizes the scratch to the graph and advances the
// stamp, which invalidates every ban and distance of the previous search.
// On wrap-around the stamp arrays are cleared once.
void next_search(const Graph& g, KspScratch& s) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto m = static_cast<std::size_t>(g.num_edges());
  if (s.seen.size() != n || s.edge_ban.size() != m) {
    s.dist.assign(n, kInf);
    s.parent_edge.assign(n, kInvalidEdge);
    s.seen.assign(n, 0);
    s.node_ban.assign(n, 0);
    s.edge_ban.assign(m, 0);
    s.stamp = 0;
  }
  if (++s.stamp == 0) {
    std::fill(s.seen.begin(), s.seen.end(), 0);
    std::fill(s.node_ban.begin(), s.node_ban.end(), 0);
    std::fill(s.edge_ban.begin(), s.edge_ban.end(), 0);
    s.stamp = 1;
  }
}

// Dijkstra from src under the current search's bans, stopped once dst is
// settled: with non-negative latencies the settled node's distance and its
// parent chain are final, so the path equals the one a full run extracts.
// The heap is a vector driven by push_heap/pop_heap with std::greater<>,
// the same pop order as std::priority_queue. Writes the src -> dst edges to
// s.spur and returns false when dst is unreachable.
bool spur_search(const Graph& g, NodeId src, NodeId dst, KspScratch& s) {
  const std::uint32_t st = s.stamp;
  const Edge* edges = g.edges().data();
  s.spur.clear();
  if (s.node_ban[static_cast<std::size_t>(src)] == st) return false;
  s.heap.clear();
  s.seen[static_cast<std::size_t>(src)] = st;
  s.dist[static_cast<std::size_t>(src)] = 0.0;
  s.parent_edge[static_cast<std::size_t>(src)] = kInvalidEdge;
  s.heap.emplace_back(0.0, src);
  while (!s.heap.empty()) {
    std::pop_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
    const auto [d, v] = s.heap.back();
    s.heap.pop_back();
    if (d > s.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    if (v == dst) {
      for (NodeId u = dst; u != src;) {
        const EdgeId e = s.parent_edge[static_cast<std::size_t>(u)];
        s.spur.push_back(e);
        u = edges[e].src;
      }
      std::reverse(s.spur.begin(), s.spur.end());
      return true;
    }
    for (EdgeId e : g.out_edges(v)) {
      if (s.edge_ban[static_cast<std::size_t>(e)] == st) continue;
      const Edge& ed = edges[e];
      const auto w = static_cast<std::size_t>(ed.dst);
      if (s.node_ban[w] == st) continue;
      const double nd = d + ed.latency;
      if (nd < (s.seen[w] == st ? s.dist[w] : kInf)) {
        s.seen[w] = st;
        s.dist[w] = nd;
        s.parent_edge[w] = e;
        s.heap.emplace_back(nd, ed.dst);
        std::push_heap(s.heap.begin(), s.heap.end(), std::greater<>{});
      }
    }
  }
  return false;
}

}  // namespace

std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst) {
  if (src == dst) return Path{};
  KspScratch scratch;
  next_search(g, scratch);
  if (!spur_search(g, src, dst, scratch)) return std::nullopt;
  return std::move(scratch.spur);
}

double path_latency(const Graph& g, const Path& p) {
  double total = 0.0;
  for (EdgeId e : p) total += g.edge(e).latency;
  return total;
}

void validate_path(const Graph& g, std::span<const EdgeId> p, NodeId src, NodeId dst) {
  if (p.empty()) {
    if (src != dst) throw std::invalid_argument("validate_path: empty path, src != dst");
    return;
  }
  if (g.edge(p.front()).src != src) throw std::invalid_argument("validate_path: bad source");
  if (g.edge(p.back()).dst != dst) throw std::invalid_argument("validate_path: bad destination");
  std::unordered_set<NodeId> visited{src};
  NodeId cur = src;
  for (EdgeId e : p) {
    const Edge& ed = g.edge(e);
    if (ed.src != cur) throw std::invalid_argument("validate_path: discontinuous path");
    cur = ed.dst;
    if (!visited.insert(cur).second) {
      throw std::invalid_argument("validate_path: path revisits a node");
    }
  }
}

std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k) {
  KspScratch scratch;
  return yen_ksp(g, src, dst, k, scratch);
}

std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k,
                          KspScratch& scratch) {
  std::vector<Path> result;
  if (k <= 0 || src == dst) return result;
  next_search(g, scratch);
  if (!spur_search(g, src, dst, scratch)) return result;
  result.push_back(scratch.spur);

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

  const Edge* edges = g.edges().data();
  std::vector<NodeId> prev_nodes;
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // Node sequence of the previous path: spur nodes are prev[0..len-1].src.
    prev_nodes.assign(1, src);
    for (EdgeId e : prev) prev_nodes.push_back(edges[e].dst);

    for (std::size_t i = 0; i < prev.size(); ++i) {
      NodeId spur = prev_nodes[i];
      // Root path: prev[0..i). A fresh stamp lifts every earlier ban.
      next_search(g, scratch);
      const std::uint32_t st = scratch.stamp;
      // Ban edges that would duplicate an already-known path sharing this root.
      for (const Path& p : result) {
        if (p.size() >= i && std::equal(p.begin(), p.begin() + static_cast<long>(i),
                                        prev.begin())) {
          if (p.size() > i) scratch.edge_ban[static_cast<std::size_t>(p[i])] = st;
        }
      }
      // Ban root-path nodes (except the spur node) to keep paths simple.
      for (std::size_t j = 0; j < i; ++j) {
        scratch.node_ban[static_cast<std::size_t>(prev_nodes[j])] = st;
      }

      if (!spur_search(g, spur, dst, scratch)) continue;

      Path total(prev.begin(), prev.begin() + static_cast<long>(i));
      total.insert(total.end(), scratch.spur.begin(), scratch.spur.end());
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

std::vector<int> bfs_hops(const Graph& g, NodeId src) {
  std::vector<int> hops(static_cast<std::size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  hops[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (EdgeId e : g.out_edges(v)) {
      NodeId u = g.edge(e).dst;
      if (hops[static_cast<std::size_t>(u)] < 0) {
        hops[static_cast<std::size_t>(u)] = hops[static_cast<std::size_t>(v)] + 1;
        q.push(u);
      }
    }
  }
  return hops;
}

}  // namespace teal::topo
