// shortest_path.h — Dijkstra and Yen's k-shortest simple paths.
//
// The path formulation of TE (Appendix A) routes each demand over a handful
// of *preconfigured* paths; the paper (and NCFlow/POP before it) uses the 4
// shortest paths between every node pair. We implement Yen's algorithm on
// top of a latency-weighted Dijkstra. A Path is a sequence of edge ids from
// source to destination.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "topo/graph.h"

namespace teal::topo {

using Path = std::vector<EdgeId>;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Shortest path src -> dst over edge latencies (Dijkstra), or nullopt if
// unreachable.
std::optional<Path> shortest_path(const Graph& g, NodeId src, NodeId dst);

// Reusable state of yen_ksp's spur searches, sized to the graph on first
// use. A spur search bans root-path nodes and deviation edges by writing the
// search's stamp into node_ban/edge_ban, and marks dist/parent entries valid
// by stamping `seen`, so no per-spur clearing of O(V + E) arrays is needed.
// One scratch per thread; reuse it across calls on the same graph.
struct KspScratch {
  std::vector<double> dist;
  std::vector<EdgeId> parent_edge;
  std::vector<std::uint32_t> seen;
  std::vector<std::uint32_t> node_ban;
  std::vector<std::uint32_t> edge_ban;
  std::vector<std::pair<double, NodeId>> heap;  // (dist, node) min-heap
  Path spur;
  std::uint32_t stamp = 0;
};

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing latency
// order. Returns fewer than k paths when the graph does not contain k
// distinct simple paths. Each spur search stops once dst is settled.
std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k);
std::vector<Path> yen_ksp(const Graph& g, NodeId src, NodeId dst, int k,
                          KspScratch& scratch);

// Hop-count single-source BFS distances (used for Table 3 statistics, which
// report hop-based shortest-path length and diameter).
std::vector<int> bfs_hops(const Graph& g, NodeId src);

// Total latency of a path.
double path_latency(const Graph& g, const Path& p);

// Validates that p is a contiguous src->dst simple path; throws otherwise.
void validate_path(const Graph& g, std::span<const EdgeId> p, NodeId src, NodeId dst);

}  // namespace teal::topo
