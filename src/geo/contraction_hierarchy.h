// Contraction Hierarchies (CH) for microsecond point-to-point queries.
//
// Preprocessing contracts nodes in importance order, inserting shortcuts that
// preserve shortest-path distances; queries run a bidirectional upward
// Dijkstra over the augmented graph. This is the oracle of choice for city
// graphs too large for an all-pairs matrix.
//
// Reference: Geisberger et al., "Contraction Hierarchies: Faster and Simpler
// Hierarchical Routing in Road Networks" (WEA 2008).
#ifndef WATTER_GEO_CONTRACTION_HIERARCHY_H_
#define WATTER_GEO_CONTRACTION_HIERARCHY_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/geo/graph.h"

namespace watter {

/// Build-time tuning knobs for CH preprocessing.
struct ChOptions {
  /// Witness-search settle limit; smaller builds faster but may add
  /// redundant (never harmful) shortcuts.
  int witness_settle_limit = 64;
  /// Witness-search hop limit.
  int witness_hop_limit = 16;
};

/// An immutable contraction hierarchy over a road graph.
class ContractionHierarchy {
 public:
  /// Preprocesses `graph` (must be finalized). O(n log n) shortcuts on
  /// road-like graphs.
  static Result<ContractionHierarchy> Build(const Graph& graph,
                                            const ChOptions& options = {});

  /// Shortest travel cost from `source` to `target`; kInfCost if unreachable.
  double Query(NodeId source, NodeId target) const;

  int num_nodes() const { return num_nodes_; }
  /// Total arcs in the upward/downward search graphs (original + shortcuts).
  int num_search_arcs() const {
    return static_cast<int>(up_arcs_.size() + down_arcs_.size());
  }
  /// Number of shortcut arcs added during preprocessing.
  int num_shortcuts() const { return num_shortcuts_; }

  /// The forward (upward) search graph's arcs out of `v`. Exposed so batch
  /// backends (bucket-CH, src/geo/bucket_ch.h) can run their own searches
  /// over the hierarchy with private scratch — sharing one hierarchy between
  /// a ChOracle and a BucketChOracle is then safe as long as each oracle
  /// serializes its own Query() use.
  std::span<const Arc> UpArcs(NodeId v) const {
    return {up_arcs_.data() + up_offsets_[v],
            up_arcs_.data() + up_offsets_[v + 1]};
  }
  /// The backward search graph's arcs at `v` (Arc::to is the *tail* of the
  /// original arc; weights are unchanged).
  std::span<const Arc> DownArcs(NodeId v) const {
    return {down_arcs_.data() + down_offsets_[v],
            down_arcs_.data() + down_offsets_[v + 1]};
  }

 private:
  ContractionHierarchy() = default;

  int num_nodes_ = 0;
  int num_shortcuts_ = 0;
  // Forward search graph: arcs u->v with rank[v] > rank[u].
  std::vector<int32_t> up_offsets_;
  std::vector<Arc> up_arcs_;
  // Backward search graph: reversed arcs u->v with rank[u] > rank[v], stored
  // at v pointing to u.
  std::vector<int32_t> down_offsets_;
  std::vector<Arc> down_arcs_;
  // Scratch buffers reused across queries (mutable: Query is logically const).
  mutable std::vector<double> dist_f_;
  mutable std::vector<double> dist_b_;
  mutable std::vector<uint32_t> version_f_;
  mutable std::vector<uint32_t> version_b_;
  mutable uint32_t query_version_ = 0;
};

}  // namespace watter

#endif  // WATTER_GEO_CONTRACTION_HIERARCHY_H_
