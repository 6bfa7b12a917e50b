#include "mmlp/graph/bfs.hpp"

#include <algorithm>
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

std::vector<std::int32_t> bfs_distances(const Hypergraph& h, NodeId source,
                                        std::int32_t max_radius) {
  MMLP_CHECK_GE(source, 0);
  MMLP_CHECK_LT(source, h.num_nodes());
  std::vector<std::int32_t> dist(static_cast<std::size_t>(h.num_nodes()), -1);
  dist[static_cast<std::size_t>(source)] = 0;
  std::vector<NodeId> frontier{source};
  std::vector<NodeId> next;
  std::int32_t level = 0;
  while (!frontier.empty() && (max_radius < 0 || level < max_radius)) {
    next.clear();
    for (const NodeId v : frontier) {
      for (const EdgeId e : h.edges_of(v)) {
        for (const NodeId u : h.edge(e)) {
          if (dist[static_cast<std::size_t>(u)] == -1) {
            dist[static_cast<std::size_t>(u)] = level + 1;
            next.push_back(u);
          }
        }
      }
    }
    frontier.swap(next);
    ++level;
  }
  return dist;
}

std::vector<NodeId> ball(const Hypergraph& h, NodeId v, std::int32_t radius) {
  BallCollector collector(h);
  return collector.collect(v, radius);
}

std::size_t ball_size(const Hypergraph& h, NodeId v, std::int32_t radius) {
  MMLP_CHECK_GE(radius, 0);
  MMLP_CHECK_GE(v, 0);
  MMLP_CHECK_LT(v, h.num_nodes());
  // Counting-only BFS: same traversal as BallCollector::collect, but no
  // membership vector is built and nothing is sorted.
  std::vector<bool> seen(static_cast<std::size_t>(h.num_nodes()), false);
  std::vector<NodeId> frontier{v};
  std::vector<NodeId> next;
  seen[static_cast<std::size_t>(v)] = true;
  std::size_t count = 1;
  for (std::int32_t level = 0; level < radius && !frontier.empty(); ++level) {
    next.clear();
    for (const NodeId w : frontier) {
      for (const EdgeId e : h.edges_of(w)) {
        for (const NodeId u : h.edge(e)) {
          if (!seen[static_cast<std::size_t>(u)]) {
            seen[static_cast<std::size_t>(u)] = true;
            ++count;
            next.push_back(u);
          }
        }
      }
    }
    frontier.swap(next);
  }
  return count;
}

BallCollector::BallCollector(const Hypergraph& h)
    : h_(&h), dist_(static_cast<std::size_t>(h.num_nodes()), -1) {}

const std::vector<NodeId>& BallCollector::collect(NodeId v, std::int32_t radius) {
  MMLP_CHECK_GE(radius, 0);
  MMLP_CHECK_GE(v, 0);
  MMLP_CHECK_LT(v, h_->num_nodes());
  // Reset only the entries touched by the previous call.
  for (const NodeId u : touched_) {
    dist_[static_cast<std::size_t>(u)] = -1;
  }
  touched_.clear();
  result_.clear();
  frontier_.clear();
  next_frontier_.clear();

  dist_[static_cast<std::size_t>(v)] = 0;
  touched_.push_back(v);
  result_.push_back(v);
  frontier_.push_back(v);
  for (std::int32_t level = 0; level < radius && !frontier_.empty(); ++level) {
    next_frontier_.clear();
    for (const NodeId w : frontier_) {
      for (const EdgeId e : h_->edges_of(w)) {
        for (const NodeId u : h_->edge(e)) {
          if (dist_[static_cast<std::size_t>(u)] == -1) {
            dist_[static_cast<std::size_t>(u)] = level + 1;
            touched_.push_back(u);
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

std::vector<NodeId> multi_source_ball(const Hypergraph& h,
                                      std::span<const NodeId> sources,
                                      std::int32_t radius) {
  MMLP_CHECK_GE(radius, 0);
  std::vector<char> seen(static_cast<std::size_t>(h.num_nodes()), 0);
  std::vector<NodeId> result;
  std::vector<NodeId> frontier;
  for (const NodeId s : sources) {
    MMLP_CHECK_GE(s, 0);
    MMLP_CHECK_LT(s, h.num_nodes());
    if (seen[static_cast<std::size_t>(s)] == 0) {
      seen[static_cast<std::size_t>(s)] = 1;
      result.push_back(s);
      frontier.push_back(s);
    }
  }
  std::vector<NodeId> next;
  for (std::int32_t level = 0; level < radius && !frontier.empty(); ++level) {
    next.clear();
    for (const NodeId w : frontier) {
      for (const EdgeId e : h.edges_of(w)) {
        for (const NodeId u : h.edge(e)) {
          if (seen[static_cast<std::size_t>(u)] == 0) {
            seen[static_cast<std::size_t>(u)] = 1;
            result.push_back(u);
            next.push_back(u);
          }
        }
      }
    }
    frontier.swap(next);
  }
  std::sort(result.begin(), result.end());
  return result;
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
  // Chunk over the dirty list; each task amortises one collector.
  chunked_parallel_for(
      dirty.size(),
      [&](std::size_t begin, std::size_t end) {
        BallCollector collector(h);
        for (std::size_t idx = begin; idx < end; ++idx) {
          const NodeId v = dirty[idx];
          MMLP_CHECK_GE(v, 0);
          MMLP_CHECK_LT(v, h.num_nodes());
          balls[static_cast<std::size_t>(v)] = collector.collect(v, radius);
        }
      },
      pool);
}
}  // namespace

std::vector<std::vector<NodeId>> all_balls(const Hypergraph& h,
                                           std::int32_t radius,
                                           ThreadPool* pool) {
  std::vector<NodeId> every(static_cast<std::size_t>(h.num_nodes()));
  std::iota(every.begin(), every.end(), NodeId{0});
  std::vector<std::vector<NodeId>> balls;
  collect_balls(h, radius, every, balls, pool, "bfs.all_balls");
  return balls;
}

void repair_balls(const Hypergraph& h, std::int32_t radius,
                  std::span<const NodeId> dirty,
                  std::vector<std::vector<NodeId>>& balls,
                  ThreadPool* pool) {
  collect_balls(h, radius, dirty, balls, pool, "bfs.repair_balls");
}

std::int32_t hypergraph_distance(const Hypergraph& h, NodeId u, NodeId v) {
  const auto dist = bfs_distances(h, u);
  return dist[static_cast<std::size_t>(v)];
}

std::int32_t eccentricity(const Hypergraph& h, NodeId v) {
  const auto dist = bfs_distances(h, v);
  std::int32_t ecc = 0;
  for (const std::int32_t d : dist) {
    ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace mmlp
