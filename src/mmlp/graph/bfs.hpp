// Breadth-first search over the agent graph induced by a hypergraph.
//
// Distances follow Section 1.4: d_H(u, v) is the shortest-path distance
// where u, v are adjacent iff they share a hyperedge. B_H(v, r) is the
// radius-r ball of Section 1.5. BallCollector is the one traversal:
// every ball, multi-source ball and distance query in the library runs
// its level-synchronous frontier loop, and for_each_ball is the one
// chunked per-node loop over it (the ball caches, the γ profile and the
// self-stabilizing flood's legitimate tables). A collector keeps its
// scratch arrays alive across calls, so a loop over many balls touches
// only the balls and never allocates an n-entry array per node.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mmlp/graph/hypergraph.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

/// B_H(v, r): all nodes within distance r of v, sorted ascending.
std::vector<NodeId> ball(const Hypergraph& h, NodeId v, std::int32_t radius);

/// Reusable-buffer ball enumerator for hot loops.
class BallCollector {
 public:
  explicit BallCollector(const Hypergraph& h);

  /// Collect B_H(v, r), sorted. The returned reference is valid until the
  /// next collect() call.
  const std::vector<NodeId>& collect(NodeId v, std::int32_t radius);

  /// Collect ∪_{s∈sources} B_H(s, r), sorted and deduplicated, in one
  /// BFS that starts from every source at distance 0. Empty for no
  /// sources. Same lifetime as the single-source call.
  const std::vector<NodeId>& collect(std::span<const NodeId> sources,
                                     std::int32_t radius);

  /// Distance of node u from the last call's nearest source, or -1 when
  /// u is not in the last collected ball. collect(v, h.num_nodes()) thus
  /// gives the full single-source BFS distances.
  std::int32_t last_distance(NodeId u) const;

 private:
  const Hypergraph* h_;
  std::vector<std::int32_t> dist_;    // -1 = untouched this round
  std::vector<NodeId> result_;        // the nodes whose dist_ entry is set
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_frontier_;
};

/// The one chunked per-node ball loop: for every v in `nodes`, in
/// parallel on `pool` (nullptr = the process-global pool), collect
/// B_H(v, radius) and call visit(v, ball, collector), where `ball` is
/// sorted and collector.last_distance(u) is d_H(v, u) for its members.
/// Each chunk reuses one collector, so the loop costs
/// O(Σ_v |B(v, radius)|·deg). visit runs concurrently for different v
/// and may write only v's own slot of a shared output.
template <typename Visit>
void for_each_ball(const Hypergraph& h, std::int32_t radius,
                   std::span<const NodeId> nodes, Visit&& visit,
                   ThreadPool* pool = nullptr) {
  chunked_parallel_for(
      nodes.size(),
      [&](std::size_t begin, std::size_t end) {
        BallCollector collector(h);
        for (std::size_t idx = begin; idx < end; ++idx) {
          const NodeId v = nodes[idx];
          const std::vector<NodeId>& ball = collector.collect(v, radius);
          visit(v, ball, std::as_const(collector));
        }
      },
      pool);
}

/// 0..h.num_nodes()-1: the `nodes` argument of a for_each_ball over
/// every node.
std::vector<NodeId> every_node(const Hypergraph& h);

/// B_H(v, r) for every node v, computed in parallel (chunked so each
/// worker reuses one BallCollector). The cold build is repair_balls with
/// every node dirty on an empty cache. `pool` follows the parallel_for
/// convention: nullptr = the process-global pool.
std::vector<std::vector<NodeId>> all_balls(const Hypergraph& h,
                                           std::int32_t radius,
                                           ThreadPool* pool = nullptr);

/// ∪_{s∈sources} B_H(s, radius): every node within distance `radius` of
/// some source, sorted ascending. One multi-source BFS, not |sources|
/// single-source ones. This is the dirty-region primitive of the update
/// pipeline: the agents whose radius-`radius` knowledge an edit with
/// touched-set `sources` can reach.
std::vector<NodeId> multi_source_ball(const Hypergraph& h,
                                      std::span<const NodeId> sources,
                                      std::int32_t radius);

/// Dirty-region repair of an all_balls cache after the hypergraph
/// changed: recompute B_H(v, radius) from scratch only for v ∈ `dirty`
/// (sorted ascending), keep every other cached ball. `balls` is resized
/// to h.num_nodes() — newly added nodes must therefore be listed dirty.
/// Sound whenever `dirty` contains every node whose ball differs between
/// the old and new hypergraph (the caller derives it via
/// multi_source_ball from a touched set in which every changed adjacency
/// has both endpoints); the repaired cache is then element-for-element
/// identical to all_balls(h, radius).
void repair_balls(const Hypergraph& h, std::int32_t radius,
                  std::span<const NodeId> dirty,
                  std::vector<std::vector<NodeId>>& balls,
                  ThreadPool* pool = nullptr);

/// Where every node sits in the balls that contain it, laid out like the
/// balls: node j owns index[offset[j] .. offset[j + 1]), one entry per
/// member of B(j, r) in ball order, and entry t is the index of j inside
/// B(u, r) for u = B(j, r)[t] (balls are symmetric, so j is there). The
/// eq. (10) gather reads x^u_j through it instead of searching B(u, r).
/// Entries are 16-bit: a ball of more than 65535 nodes fails a CHECK
/// (its view LP's dense tableau could never be allocated anyway).
struct BallPositions {
  std::vector<std::size_t> offset;  ///< n + 1 prefix sums of |B(j, r)|
  std::vector<std::uint16_t> index;

  std::size_t size(std::size_t j) const { return offset[j + 1] - offset[j]; }
  const std::uint16_t* row(std::size_t j) const { return index.data() + offset[j]; }
};

/// BallPositions of an all_balls cache, computed in parallel. The cold
/// build is repair_ball_positions with every node dirty on an empty
/// entry.
BallPositions all_ball_positions(const std::vector<std::vector<NodeId>>& balls,
                                 ThreadPool* pool = nullptr);

/// Recompute the rows of `dirty` (sorted ascending) after `balls` was
/// repaired, keep every other row. Row j reads B(j, r) and the balls of
/// its members, so it can change only for j ∈ ∪_{d∈D} B(d, r), where D
/// is the balls' own dirty region — that union is the sound `dirty`
/// here. The layout follows the balls: it moves (and the kept rows are
/// copied over) only when n grew or a dirty row changed size. The result
/// is element-for-element identical to all_ball_positions(balls).
void repair_ball_positions(const std::vector<std::vector<NodeId>>& balls,
                           std::span<const NodeId> dirty,
                           BallPositions& positions,
                           ThreadPool* pool = nullptr);

}  // namespace mmlp
