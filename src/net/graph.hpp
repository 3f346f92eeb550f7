// Labeled undirected graph G = (V, E) with per-edge latencies — the
// physical network model from Section III of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace hermes::net {

using NodeId = std::uint32_t;
inline constexpr double kInfLatency = std::numeric_limits<double>::infinity();

struct Edge {
  NodeId to = 0;
  double latency_ms = 0.0;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const;  // undirected edges

  NodeId add_node();
  // Adds an undirected edge; no-op (keeping the first latency) if present.
  void add_edge(NodeId a, NodeId b, double latency_ms);
  void remove_edge(NodeId a, NodeId b);
  bool has_edge(NodeId a, NodeId b) const;
  // Latency of edge (a, b); nullopt if absent.
  std::optional<double> edge_latency(NodeId a, NodeId b) const;

  const std::vector<Edge>& neighbors(NodeId v) const {
    HERMES_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  // Single-source shortest path latencies (Dijkstra). Unreachable nodes get
  // kInfLatency.
  std::vector<double> shortest_latencies(NodeId source) const;
  // Dijkstra from `source` that calls visit(v, latency) for each reachable
  // node as it settles, source first, and stops as soon as visit returns
  // false. Latencies are non-decreasing over the calls; equal ones come in
  // id order when every edge latency is positive. Each settled latency is
  // the exact value shortest_latencies(source) holds for that node, so a
  // caller that needs only the nearest nodes can stop early.
  template <typename Visit>
  void settle_nearest(NodeId source, Visit&& visit) const;
  // Hop distances (BFS). Unreachable nodes get SIZE_MAX.
  std::vector<std::size_t> hop_distances(NodeId source) const;

  bool is_connected() const;
  // Sum over all ordered pairs of shortest-path latency / (n * (n-1)).
  double average_pairwise_latency() const;

 private:
  std::vector<std::vector<Edge>> adjacency_;
};

template <typename Visit>
void Graph::settle_nearest(NodeId source, Visit&& visit) const {
  HERMES_REQUIRE(source < adjacency_.size());
  std::vector<double> dist(adjacency_.size(), kInfLatency);
  dist[source] = 0.0;
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    if (!visit(v, d)) return;
    for (const Edge& e : adjacency_[v]) {
      const double nd = d + e.latency_ms;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        pq.emplace(nd, e.to);
      }
    }
  }
}

}  // namespace hermes::net
