// Flooding (== ball growth: after r rounds agent v knows B_H(v, r)) and
// the knowledge-boundary machinery. The flood loop double-buffers the
// per-agent knowledge sets and reuses the receive-side vectors across
// rounds, so a full 2R+1-round flood allocates only what the final balls
// occupy; materialize_into is restrict_to_agents over the horizon.
#include "mmlp/dist/runtime.hpp"

#include <algorithm>

#include "mmlp/util/check.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

LocalRuntime::LocalRuntime(const Instance& instance,
                           bool collaboration_oblivious)
    : graph_(instance.communication_graph(collaboration_oblivious)),
      collaboration_oblivious_(collaboration_oblivious) {
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    degree_sum_ += static_cast<std::int64_t>(graph_.degree(v));
  }
}

std::vector<std::vector<AgentId>> LocalRuntime::flood(
    std::int32_t rounds) const {
  MMLP_CHECK_GE(rounds, 0);
  const auto n = static_cast<std::size_t>(graph_.num_nodes());
  std::vector<std::vector<AgentId>> knowledge(n);
  for (std::size_t v = 0; v < n; ++v) {
    knowledge[v] = {static_cast<AgentId>(v)};
  }
  std::vector<std::vector<AgentId>> received(n);
  for (std::int32_t round = 0; round < rounds; ++round) {
    // Synchronous round: every agent reads the packet each hyperedge
    // member broadcast at the end of the previous round and merges.
    // Writes go only to received[v] (whose buffer is recycled from two
    // rounds ago by the swap below), so the round is parallel over v.
    parallel_for(n, [&](std::size_t v) {
      std::vector<AgentId>& merged = received[v];
      merged.clear();
      const auto& own = knowledge[v];
      merged.insert(merged.end(), own.begin(), own.end());
      for (const EdgeId e : graph_.edges_of(static_cast<NodeId>(v))) {
        for (const NodeId u : graph_.edge(e)) {
          if (u == static_cast<NodeId>(v)) {
            continue;
          }
          const auto& packet = knowledge[static_cast<std::size_t>(u)];
          merged.insert(merged.end(), packet.begin(), packet.end());
        }
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    });
    knowledge.swap(received);
  }
  return knowledge;
}

std::int64_t LocalRuntime::message_count(std::int32_t rounds) const {
  MMLP_CHECK_GE(rounds, 0);
  return static_cast<std::int64_t>(rounds) * degree_sum_;
}

AgentContext::AgentContext(const Instance& instance, AgentId self,
                           std::vector<AgentId> knowledge)
    : instance_(&instance), self_(self), knowledge_(std::move(knowledge)) {
  std::sort(knowledge_.begin(), knowledge_.end());
  knowledge_.erase(std::unique(knowledge_.begin(), knowledge_.end()),
                   knowledge_.end());
  MMLP_CHECK_MSG(!knowledge_.empty() && knowledge_.front() >= 0 &&
                     knowledge_.back() < instance.num_agents(),
                 "knowledge set contains invalid agent ids");
  MMLP_CHECK_MSG(knows(self_),
                 "agent " << self_ << " missing from its own knowledge set");
}

bool AgentContext::knows(AgentId v) const {
  return std::binary_search(knowledge_.begin(), knowledge_.end(), v);
}

CoefSpan AgentContext::agent_resources(AgentId v) const {
  MMLP_CHECK_MSG(knows(v), "agent " << self_ << " cannot see agent " << v);
  return instance_->agent_resources(v);
}

CoefSpan AgentContext::agent_parties(AgentId v) const {
  MMLP_CHECK_MSG(knows(v), "agent " << self_ << " cannot see agent " << v);
  return instance_->agent_parties(v);
}

CoefSpan AgentContext::resource_support(ResourceId i) const {
  const CoefSpan support = instance_->resource_support(i);
  for (const Coef& entry : support) {
    if (knows(entry.id)) {
      return support;
    }
  }
  detail::check_failed("resource visible", __FILE__, __LINE__,
                       "agent " + std::to_string(self_) +
                           " knows no member of resource " + std::to_string(i));
}

CoefSpan AgentContext::party_support(PartyId k) const {
  const CoefSpan support = instance_->party_support(k);
  for (const Coef& entry : support) {
    if (knows(entry.id)) {
      return support;
    }
  }
  detail::check_failed("party visible", __FILE__, __LINE__,
                       "agent " + std::to_string(self_) +
                           " knows no member of party " + std::to_string(k));
}

void AgentContext::materialize_into(Subinstance& world,
                                    RestrictArena& arena) const {
  world.agents.assign(knowledge_.begin(), knowledge_.end());
  restrict_to_agents(*instance_, world, arena);
}

Subinstance AgentContext::materialize() const {
  Subinstance world;
  RestrictArena arena;
  materialize_into(world, arena);
  return world;
}

}  // namespace mmlp
