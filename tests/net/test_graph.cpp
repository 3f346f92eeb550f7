#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace hermes::net {
namespace {

Graph line_graph(std::size_t n, double latency = 1.0) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, latency);
  return g;
}

TEST(Graph, AddAndQueryEdges) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*g.edge_latency(0, 1), 5.0);
  EXPECT_FALSE(g.edge_latency(0, 2).has_value());
}

TEST(Graph, AddEdgeIdempotent) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 9.0);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(*g.edge_latency(0, 1), 5.0);  // first latency kept
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, DijkstraShortestLatencies) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 1.0);
  const auto dist = g.shortest_latencies(0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);  // via 1, not the direct 5.0 edge
  EXPECT_DOUBLE_EQ(dist[3], 3.0);
}

TEST(Graph, DijkstraUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto dist = g.shortest_latencies(0);
  EXPECT_EQ(dist[2], kInfLatency);
}

// Random graph with n nodes and about 3n edges. Integer latencies in 1..4
// make equal-latency ties common; `components` > 1 splits the ids into
// that many blocks with no edge between them.
Graph random_graph(std::uint64_t seed, std::size_t n, bool integer_latencies,
                   std::size_t components = 1) {
  Rng rng(seed);
  Graph g(n);
  const std::size_t block = (n + components - 1) / components;
  for (std::size_t i = 0; i < 3 * n; ++i) {
    const auto a = static_cast<NodeId>(rng.uniform_u64(n));
    const std::size_t base = a / block * block;
    const std::size_t width = std::min(block, n - base);
    const auto b = static_cast<NodeId>(base + rng.uniform_u64(width));
    if (a == b) continue;
    const double latency =
        integer_latencies ? static_cast<double>(1 + rng.uniform_u64(4))
                          : rng.uniform_real(0.5, 80.0);
    g.add_edge(a, b, latency);
  }
  return g;
}

// Independent reference: Bellman-Ford relaxation to a fixed point.
std::vector<double> bellman_ford(const Graph& g, NodeId source) {
  std::vector<double> dist(g.node_count(), kInfLatency);
  dist[source] = 0.0;
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (dist[v] == kInfLatency) continue;
      for (const Edge& e : g.neighbors(v)) {
        if (dist[v] + e.latency_ms < dist[e.to]) {
          dist[e.to] = dist[v] + e.latency_ms;
          changed = true;
        }
      }
    }
  }
  return dist;
}

std::vector<std::pair<NodeId, double>> settle_all(const Graph& g,
                                                  NodeId source,
                                                  std::size_t limit = SIZE_MAX) {
  std::vector<std::pair<NodeId, double>> out;
  g.settle_nearest(source, [&](NodeId v, double d) {
    out.emplace_back(v, d);
    return out.size() < limit;
  });
  return out;
}

struct SearchCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool integer_latencies;
  std::size_t components;
};

const SearchCase kSearchCases[] = {
    {1, 60, true, 1},  {2, 60, false, 1}, {3, 90, true, 1},
    {4, 90, false, 1}, {5, 80, true, 3},  {6, 80, false, 2},
};

TEST(Graph, SettleNearestVisitsShortestLatenciesExactly) {
  for (const SearchCase& c : kSearchCases) {
    const Graph g =
        random_graph(c.seed, c.nodes, c.integer_latencies, c.components);
    for (NodeId source = 0; source < c.nodes; source += 7) {
      const auto full = g.shortest_latencies(source);
      const auto reference = bellman_ford(g, source);
      for (NodeId v = 0; v < c.nodes; ++v) {
        if (reference[v] == kInfLatency) {
          EXPECT_EQ(full[v], kInfLatency);
        } else {
          EXPECT_NEAR(full[v], reference[v], 1e-9);
        }
      }
      const auto visits = settle_all(g, source);
      std::vector<bool> seen(c.nodes, false);
      for (const auto& [v, d] : visits) {
        ASSERT_FALSE(seen[v]) << "seed " << c.seed << ": node " << v
                              << " settled twice";
        seen[v] = true;
        EXPECT_EQ(d, full[v]) << "seed " << c.seed << " source " << source;
      }
      for (NodeId v = 0; v < c.nodes; ++v) {
        EXPECT_EQ(seen[v], full[v] != kInfLatency)
            << "seed " << c.seed << " source " << source << " node " << v;
      }
      ASSERT_FALSE(visits.empty());
      EXPECT_EQ(visits.front().first, source);
    }
  }
}

TEST(Graph, SettleNearestOrdersByLatencyThenId) {
  for (const SearchCase& c : kSearchCases) {
    const Graph g =
        random_graph(c.seed, c.nodes, c.integer_latencies, c.components);
    for (NodeId source = 0; source < c.nodes; source += 5) {
      const auto visits = settle_all(g, source);
      for (std::size_t i = 1; i < visits.size(); ++i) {
        EXPECT_LT(std::make_pair(visits[i - 1].second, visits[i - 1].first),
                  std::make_pair(visits[i].second, visits[i].first))
            << "seed " << c.seed << " source " << source << " at " << i;
      }
    }
  }
}

TEST(Graph, SettleNearestStoppedEarlyIsAPrefix) {
  for (const SearchCase& c : kSearchCases) {
    const Graph g =
        random_graph(c.seed, c.nodes, c.integer_latencies, c.components);
    for (NodeId source = 0; source < c.nodes; source += 11) {
      const auto full = settle_all(g, source);
      for (std::size_t limit : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                full.size() / 2, full.size()}) {
        if (limit == 0 || limit > full.size()) continue;
        const auto prefix = settle_all(g, source, limit);
        ASSERT_EQ(prefix.size(), limit);
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), full.begin()))
            << "seed " << c.seed << " source " << source << " limit "
            << limit;
      }
    }
  }
}

TEST(Graph, HopDistances) {
  const Graph g = line_graph(5);
  const auto hops = g.hop_distances(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hops[i], i);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, EmptyGraphIsConnected) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, AveragePairwiseLatencyLine) {
  // Line 0-1-2 with unit edges: pairs (0,1)=1 (0,2)=2 (1,2)=1; both
  // directions -> mean = (1+2+1)*2 / 6 = 4/3.
  const Graph g = line_graph(3);
  EXPECT_NEAR(g.average_pairwise_latency(), 4.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hermes::net
