#include "mmlp/graph/bfs.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {
/// Count once per call, outside the parallel loop — per-node atomics in
/// the BFS hot path would cost more than the expansion itself.
void count_ball_expansions(std::size_t n) {
  static obs::Counter& counter =
      obs::Registry::global().counter("bfs.ball_expansions");
  counter.add(static_cast<std::int64_t>(n));
}
}  // namespace

std::vector<NodeId> ball(const Hypergraph& h, NodeId v, std::int32_t radius) {
  BallCollector collector(h);
  return collector.collect(v, radius);
}

BallCollector::BallCollector(const Hypergraph& h)
    : h_(&h), dist_(static_cast<std::size_t>(h.num_nodes()), -1) {}

const std::vector<NodeId>& BallCollector::collect(NodeId v, std::int32_t radius) {
  return collect(std::span<const NodeId>(&v, 1), radius);
}

const std::vector<NodeId>& BallCollector::collect(
    std::span<const NodeId> sources, std::int32_t radius) {
  MMLP_CHECK_GE(radius, 0);
  // Reset only the entries the previous call set.
  for (const NodeId u : result_) {
    dist_[static_cast<std::size_t>(u)] = -1;
  }
  result_.clear();
  frontier_.clear();
  for (const NodeId s : sources) {
    MMLP_CHECK_GE(s, 0);
    MMLP_CHECK_LT(s, h_->num_nodes());
    if (dist_[static_cast<std::size_t>(s)] == -1) {
      dist_[static_cast<std::size_t>(s)] = 0;
      result_.push_back(s);
      frontier_.push_back(s);
    }
  }
  for (std::int32_t level = 0; level < radius && !frontier_.empty(); ++level) {
    next_frontier_.clear();
    for (const NodeId w : frontier_) {
      for (const EdgeId e : h_->edges_of(w)) {
        for (const NodeId u : h_->edge(e)) {
          if (dist_[static_cast<std::size_t>(u)] == -1) {
            dist_[static_cast<std::size_t>(u)] = level + 1;
            result_.push_back(u);
            next_frontier_.push_back(u);
          }
        }
      }
    }
    frontier_.swap(next_frontier_);
  }
  std::sort(result_.begin(), result_.end());
  return result_;
}

std::int32_t BallCollector::last_distance(NodeId u) const {
  MMLP_CHECK_GE(u, 0);
  MMLP_CHECK_LT(u, h_->num_nodes());
  return dist_[static_cast<std::size_t>(u)];
}

std::vector<NodeId> every_node(const Hypergraph& h) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(h.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

std::vector<NodeId> multi_source_ball(const Hypergraph& h,
                                      std::span<const NodeId> sources,
                                      std::int32_t radius) {
  BallCollector collector(h);
  return collector.collect(sources, radius);
}

namespace {
/// Re-BFS B_H(v, radius) for every v in `dirty` into an n-sized cache.
/// The one body behind all_balls (every node dirty, empty cache) and
/// repair_balls; `span_name` keeps the two traceable apart.
void collect_balls(const Hypergraph& h, std::int32_t radius,
                   std::span<const NodeId> dirty,
                   std::vector<std::vector<NodeId>>& balls, ThreadPool* pool,
                   const char* span_name) {
  MMLP_CHECK_GE(radius, 0);
  const auto n = static_cast<std::size_t>(h.num_nodes());
  MMLP_CHECK_MSG(balls.size() <= n,
                 "repair_balls: cache has " << balls.size() << " balls but the "
                                            << "hypergraph has " << n
                                            << " nodes (node removal needs a "
                                               "full rebuild)");
  balls.resize(n);
  if (dirty.empty()) {
    return;
  }
  obs::ObsSpan span(span_name, "graph");
  count_ball_expansions(dirty.size());
  for_each_ball(
      h, radius, dirty,
      [&](NodeId v, const std::vector<NodeId>& ball, const BallCollector&) {
        balls[static_cast<std::size_t>(v)] = ball;
      },
      pool);
}
}  // namespace

std::vector<std::vector<NodeId>> all_balls(const Hypergraph& h,
                                           std::int32_t radius,
                                           ThreadPool* pool) {
  std::vector<std::vector<NodeId>> balls;
  collect_balls(h, radius, every_node(h), balls, pool, "bfs.all_balls");
  return balls;
}

void repair_balls(const Hypergraph& h, std::int32_t radius,
                  std::span<const NodeId> dirty,
                  std::vector<std::vector<NodeId>>& balls,
                  ThreadPool* pool) {
  collect_balls(h, radius, dirty, balls, pool, "bfs.repair_balls");
}

namespace {
/// Fill `positions`' row j: the index of j inside each member's ball.
void write_position_row(const std::vector<std::vector<NodeId>>& balls,
                        NodeId j, BallPositions& positions) {
  const std::vector<NodeId>& ball_j = balls[static_cast<std::size_t>(j)];
  std::uint16_t* const out =
      positions.index.data() + positions.offset[static_cast<std::size_t>(j)];
  for (std::size_t t = 0; t < ball_j.size(); ++t) {
    const std::vector<NodeId>& ball_u =
        balls[static_cast<std::size_t>(ball_j[t])];
    const auto it = std::lower_bound(ball_u.begin(), ball_u.end(), j);
    MMLP_CHECK_MSG(it != ball_u.end() && *it == j,
                   "ball positions: node " << j << " is missing from the ball "
                                           << "of its ball member "
                                           << ball_j[t]
                                           << " (balls must be symmetric)");
    out[t] = static_cast<std::uint16_t>(it - ball_u.begin());
  }
}
}  // namespace

BallPositions all_ball_positions(const std::vector<std::vector<NodeId>>& balls,
                                 ThreadPool* pool) {
  std::vector<NodeId> every(balls.size());
  std::iota(every.begin(), every.end(), NodeId{0});
  BallPositions positions;
  repair_ball_positions(balls, every, positions, pool);
  return positions;
}

void repair_ball_positions(const std::vector<std::vector<NodeId>>& balls,
                           std::span<const NodeId> dirty,
                           BallPositions& positions, ThreadPool* pool) {
  const std::size_t n = balls.size();
  const std::size_t old_n =
      positions.offset.empty() ? 0 : positions.offset.size() - 1;
  MMLP_CHECK_MSG(old_n <= n, "repair_ball_positions: cache has "
                                 << old_n << " rows but there are " << n
                                 << " balls (node removal needs a full "
                                    "rebuild)");
  const auto kept = [&](std::size_t j) {
    return j < old_n && positions.size(j) == balls[j].size();
  };
  if (old_n != n || !std::ranges::all_of(dirty, [&](NodeId j) {
        return kept(static_cast<std::size_t>(j));
      })) {
    BallPositions fresh;
    fresh.offset.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j) {
      MMLP_CHECK_MSG(balls[j].size() <= std::numeric_limits<std::uint16_t>::max(),
                     "ball positions: the ball of node "
                         << j << " has " << balls[j].size()
                         << " members; positions are 16-bit, so at most "
                         << std::numeric_limits<std::uint16_t>::max()
                         << " are supported");
      fresh.offset[j + 1] = fresh.offset[j] + balls[j].size();
    }
    fresh.index.resize(fresh.offset[n]);
    // One ascending walk over the rows and the sorted dirty list: a row
    // that cannot be kept must be dirty.
    std::size_t next_dirty = 0;
    for (std::size_t j = 0; j < n; ++j) {
      while (next_dirty < dirty.size() &&
             dirty[next_dirty] < static_cast<NodeId>(j)) {
        ++next_dirty;
      }
      if (kept(j)) {
        std::copy_n(positions.row(j), balls[j].size(),
                    fresh.index.data() + fresh.offset[j]);
      } else {
        MMLP_CHECK(next_dirty < dirty.size() &&
                   dirty[next_dirty] == static_cast<NodeId>(j));
      }
    }
    positions = std::move(fresh);
  }
  if (dirty.empty()) {
    return;
  }
  obs::ObsSpan span("bfs.ball_positions", "graph");
  chunked_parallel_for(
      dirty.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t idx = begin; idx < end; ++idx) {
          MMLP_CHECK_GE(dirty[idx], 0);
          MMLP_CHECK_LT(static_cast<std::size_t>(dirty[idx]), n);
          write_position_row(balls, dirty[idx], positions);
        }
      },
      pool);
}

}  // namespace mmlp
