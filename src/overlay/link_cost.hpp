// The one pricing rule for a new overlay link parent -> child, shared by
// join placement (join.cpp) and local repair (repair.cpp): the physical
// edge's latency when there is one, else the shortest-path latency of the
// logical link, read from the child's single-source row. Both callers price
// many candidate parents for one child, so the row is computed on first
// need and at most once per child.
//
// Physical latencies are symmetric, but a shortest-path sum need not be
// bit-symmetric in floating point: summing the same path from the other end
// can differ in the last bits. Pricing from the child's side everywhere
// keeps every site's cost the same value.
#pragma once

#include <vector>

#include "net/graph.hpp"

namespace hermes::overlay {

class ChildLinkCosts {
 public:
  ChildLinkCosts(const net::Graph& g, net::NodeId child)
      : g_(g), child_(child) {}

  // kInfLatency when `parent` cannot reach the child at all.
  double from(net::NodeId parent) {
    if (const auto lat = g_.edge_latency(parent, child_)) return *lat;
    if (row_.empty()) row_ = g_.shortest_latencies(child_);
    return row_[parent];
  }

 private:
  const net::Graph& g_;
  net::NodeId child_;
  std::vector<double> row_;
};

}  // namespace hermes::overlay
