// Self-stabilizing knowledge maintenance (the Section 1.1 remark that
// constant-horizon local algorithms yield self-stabilizing algorithms
// with constant stabilization time): every round each agent recomputes
// its radius-h knowledge purely from its neighbours' current claims plus
// itself, so any corrupted state is flushed after at most horizon + 1
// synchronous rounds and the safe/averaging outputs derived from the
// stabilized knowledge coincide with the fault-free execution.
#include "mmlp/dist/self_stabilize.hpp"

#include <algorithm>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

std::int64_t message_count(const Hypergraph& h, std::int32_t rounds) {
  MMLP_CHECK_GE(rounds, 0);
  std::int64_t degree_sum = 0;
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    degree_sum += static_cast<std::int64_t>(h.degree(v));
  }
  return static_cast<std::int64_t>(rounds) * degree_sum;
}

SelfStabilizingFlood::SelfStabilizingFlood(const Hypergraph& graph,
                                           std::int32_t horizon,
                                           ThreadPool* pool)
    : pool_(pool), graph_(&graph), horizon_(horizon) {
  MMLP_CHECK_GE(horizon, 0);
  obs::ObsSpan span("selfstab.legitimate", "dist");
  legitimate_.resize(static_cast<std::size_t>(graph.num_nodes()));
  for_each_ball(
      graph, horizon, every_node(graph),
      [&](NodeId v, const std::vector<NodeId>& ball,
          const BallCollector& collector) {
        Table& table = legitimate_[static_cast<std::size_t>(v)];
        table.reserve(ball.size());
        for (const NodeId o : ball) {
          table.push_back({o, collector.last_distance(o)});
        }
      },
      pool_);
  tables_ = legitimate_;
}

void SelfStabilizingFlood::clear() {
  for (Table& table : tables_) {
    table.clear();
  }
}

void SelfStabilizingFlood::reset_legitimate() { tables_ = legitimate_; }

void SelfStabilizingFlood::insert_ghost(Table& table, Rng& rng) const {
  const Entry ghost{static_cast<AgentId>(rng.next_below(tables_.size())),
                    static_cast<std::int32_t>(
                        rng.uniform_int(0, std::max(horizon_, 0)))};
  const auto it = std::lower_bound(
      table.begin(), table.end(), ghost.origin,
      [](const Entry& entry, AgentId o) { return entry.origin < o; });
  if (it != table.end() && it->origin == ghost.origin) {
    it->dist = ghost.dist;
  } else {
    table.insert(it, ghost);
  }
}

void SelfStabilizingFlood::corrupt(Rng& rng, std::int32_t entries) {
  const auto n = static_cast<std::uint64_t>(tables_.size());
  if (n == 0) {
    return;
  }
  for (std::int32_t e = 0; e < entries; ++e) {
    Table& table = tables_[rng.next_below(n)];
    if (!table.empty() && rng.bernoulli(0.25)) {
      table.erase(table.begin() +
                  static_cast<std::ptrdiff_t>(rng.next_below(table.size())));
      continue;
    }
    insert_ghost(table, rng);
  }
}

void SelfStabilizingFlood::corrupt_all(Rng& rng) {
  for (Table& table : tables_) {
    table.clear();
    // Random size up to about twice a plausible ball, random in-range
    // origins and distances, deduplicated by origin — a table with no
    // relation to the legitimate one (the self entry included only by
    // chance).
    const std::uint64_t entries = rng.next_below(2 * std::max<std::uint64_t>(
                                                         1, horizon_ + 2) +
                                                 1);
    for (std::uint64_t e = 0; e < entries; ++e) {
      insert_ghost(table, rng);
    }
  }
}

std::int32_t SelfStabilizingFlood::step() { return step(nullptr, 0); }

std::int32_t SelfStabilizingFlood::step(FaultInjector* faults,
                                        std::int32_t round) {
  const auto n = static_cast<std::size_t>(tables_.size());
  bool track_stale = false;
  if (faults != nullptr) {
    faults->begin_round(round);
    track_stale = std::any_of(
        faults->plan().events.begin(), faults->plan().events.end(),
        [](const FaultEvent& event) {
          return event.kind == FaultKind::kDelayMessage;
        });
    if (track_stale && stale_.size() != n) {
      stale_ = tables_;  // first faulty round: no older state exists
    }
    // State-level faults rewrite tables serially before anyone reads
    // them: a crashed agent restarts cold (empty table — the recompute
    // rule regrows its self entry this very round), a state corruption
    // applies the injector's per-event mutation stream.
    for (std::size_t v = 0; v < n; ++v) {
      const auto agent = static_cast<AgentId>(v);
      if (faults->crashed(agent)) {
        tables_[v].clear();
      }
      if (faults->state_corrupted(agent)) {
        Rng rng = faults->event_rng(agent);
        Table& table = tables_[v];
        const std::uint64_t mutations = 1 + rng.next_below(4);
        for (std::uint64_t m = 0; m < mutations; ++m) {
          if (!table.empty() && rng.bernoulli(0.5)) {
            table.erase(
                table.begin() +
                static_cast<std::ptrdiff_t>(rng.next_below(table.size())));
          } else {
            insert_ghost(table, rng);
          }
        }
      }
    }
  }
  std::vector<Table> next(n);
  std::vector<std::uint8_t> changed(n, 0);
  parallel_for(n, [&](std::size_t v) {
    // Recompute from scratch: self entry plus aged neighbour entries,
    // keeping the minimum distance per origin. Message faults apply per
    // (receiver, sender) packet; all their randomness comes from
    // derived per-event streams, so the faulty round is deterministic
    // on any thread count.
    Table merged;
    merged.push_back({static_cast<AgentId>(v), 0});
    for (const EdgeId e : graph_->edges_of(static_cast<NodeId>(v))) {
      for (const NodeId u : graph_->edge(e)) {
        if (u == static_cast<NodeId>(v)) {
          continue;
        }
        FaultInjector::MessageFate fate;
        if (faults != nullptr) {
          fate = faults->message_fate(static_cast<AgentId>(v),
                                      static_cast<AgentId>(u));
        }
        if (fate.copies == 0) {
          continue;  // dropped in flight
        }
        const Table& payload =
            fate.delay && track_stale ? stale_[static_cast<std::size_t>(u)]
                                      : tables_[static_cast<std::size_t>(u)];
        Rng rng = faults != nullptr && fate.corrupt
                      ? faults->event_rng(static_cast<AgentId>(v),
                                          static_cast<AgentId>(u))
                      : Rng(0);
        for (std::int32_t c = 0; c < fate.copies; ++c) {
          for (const Entry& entry : payload) {
            Entry delivered = entry;
            if (fate.corrupt && rng.bernoulli(0.25)) {
              if (rng.bernoulli(0.5)) {
                delivered.origin = static_cast<AgentId>(rng.next_below(n));
              } else {
                delivered.dist = static_cast<std::int32_t>(
                    rng.uniform_int(0, std::max(horizon_, 0)));
              }
            }
            if (delivered.dist + 1 <= horizon_) {
              merged.push_back({delivered.origin, delivered.dist + 1});
            }
          }
        }
      }
    }
    std::sort(merged.begin(), merged.end(), [](const Entry& a, const Entry& b) {
      return a.origin < b.origin || (a.origin == b.origin && a.dist < b.dist);
    });
    Table& table = next[v];
    for (const Entry& entry : merged) {
      if (table.empty() || table.back().origin != entry.origin) {
        table.push_back(entry);
      }
    }
    // The self entry wins any ghost claiming distance 0 to v.
    changed[v] = (table != tables_[v]) ? 1 : 0;
  }, pool_);
  std::int32_t num_changed = 0;
  for (const std::uint8_t flag : changed) {
    num_changed += flag;
  }
  if (track_stale) {
    stale_ = tables_;  // start-of-this-round state for the next delay
  }
  tables_.swap(next);
  return num_changed;
}

std::int32_t SelfStabilizingFlood::run_until_stable(std::int32_t max_rounds) {
  std::int32_t rounds = 0;
  while (rounds < max_rounds) {
    ++rounds;
    if (step() == 0) {
      break;
    }
  }
  return rounds;
}

bool SelfStabilizingFlood::is_legitimate() const {
  return tables_ == legitimate_;
}

std::vector<AgentId> SelfStabilizingFlood::knowledge(AgentId v) const {
  std::vector<AgentId> origins;
  knowledge(v, origins);
  return origins;
}

std::span<const AgentId> SelfStabilizingFlood::knowledge(
    AgentId v, std::vector<AgentId>& buffer) const {
  MMLP_CHECK_GE(v, 0);
  MMLP_CHECK_LT(static_cast<std::size_t>(v), tables_.size());
  buffer.clear();
  for (const Entry& entry : tables_[static_cast<std::size_t>(v)]) {
    buffer.push_back(entry.origin);
  }
  return buffer;
}

}  // namespace mmlp
