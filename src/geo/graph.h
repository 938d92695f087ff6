// Directed weighted road-network graph with CSR storage.
//
// The graph is built incrementally (AddNode/AddEdge) and then Finalize()d
// into forward and reverse CSR adjacency for cache-friendly traversal. All
// shortest-path code (Dijkstra, bidirectional search, contraction
// hierarchies) operates on the finalized form.
#ifndef WATTER_GEO_GRAPH_H_
#define WATTER_GEO_GRAPH_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/geo/point.h"

namespace watter {

/// Identifier of a road-network node. Negative values are invalid.
using NodeId = int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// Sentinel for "unreachable" travel costs.
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// One outgoing (or incoming) arc of the CSR adjacency.
struct Arc {
  NodeId to = kInvalidNode;  ///< Head node (tail node for reverse arcs).
  double weight = 0.0;       ///< Travel time in seconds.
};

/// Road network. Edge weights are travel times in seconds.
class Graph {
 public:
  Graph() = default;

  /// Adds a node located at `p`; returns its id (dense, starting at 0).
  NodeId AddNode(Point p);

  /// Adds a directed edge. Requires valid endpoints and weight >= 0;
  /// violations surface at Finalize().
  void AddEdge(NodeId from, NodeId to, double weight);

  /// Adds both directions with the same weight.
  void AddBidirectionalEdge(NodeId a, NodeId b, double weight);

  /// Validates and freezes the graph, building CSR adjacency. Must be called
  /// exactly once before any traversal.
  Status Finalize();

  bool finalized() const { return finalized_; }
  int num_nodes() const { return static_cast<int>(points_.size()); }
  int num_edges() const {
    return static_cast<int>(finalized_ ? out_arcs_.size() : edge_from_.size());
  }

  /// Location of `node`. Requires a valid id.
  const Point& node_point(NodeId node) const { return points_[node]; }

  /// Outgoing arcs of `node`. Requires finalized().
  std::span<const Arc> OutArcs(NodeId node) const {
    return {out_arcs_.data() + out_offsets_[node],
            out_arcs_.data() + out_offsets_[node + 1]};
  }

  /// Incoming arcs of `node` (Arc::to is the tail). Requires finalized().
  std::span<const Arc> InArcs(NodeId node) const {
    return {in_arcs_.data() + in_offsets_[node],
            in_arcs_.data() + in_offsets_[node + 1]};
  }

  /// True if every node can reach every other node treating arcs as
  /// undirected. Requires finalized().
  bool IsWeaklyConnected() const;

  /// Bounding box over node locations. Requires at least one node.
  Point MinCorner() const;
  Point MaxCorner() const;

 private:
  std::vector<Point> points_;
  // Edge staging before Finalize().
  std::vector<NodeId> edge_from_;
  std::vector<NodeId> edge_to_;
  std::vector<double> edge_weight_;
  // CSR storage after Finalize().
  std::vector<int32_t> out_offsets_;
  std::vector<Arc> out_arcs_;
  std::vector<int32_t> in_offsets_;
  std::vector<Arc> in_arcs_;
  bool finalized_ = false;
};

}  // namespace watter

#endif  // WATTER_GEO_GRAPH_H_
