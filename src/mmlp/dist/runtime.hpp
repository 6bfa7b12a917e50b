// The LOCAL model of Section 1.1 as an executable runtime.
//
// LocalRuntime simulates synchronous flooding over the communication
// hypergraph H (full or collaboration-oblivious): in every round each
// agent sends one packet per incident hyperedge — its current knowledge
// set — and merges what arrives. After r rounds agent v knows exactly
// B_H(v, r), which is the defining property of a horizon-r local
// algorithm (the simulator is tested against graph/bfs ball()).
//
// AgentContext is the knowledge boundary. Distributed algorithms read
// Instance data only through a context, and every accessor throws
// CheckError when the request reaches outside the agent's horizon, so a
// per-agent algorithm is *structurally* unable to use information a real
// message-passing execution would not have. materialize() converts the
// horizon into a standalone sub-Instance (the agent's "world") on which
// the centralized machinery (views, LPs, balls) can run unchanged. It is
// restrict_to_agents (core/transform.hpp), the same restriction that
// cuts a shard out of a sharded instance; the materialize_into variant
// lets a worker loop reuse one RestrictArena and one world's id buffers
// across all the agents it processes.
//
// The runtime is fault-free. Fault plans meet an exchange only in
// SelfStabilizingFlood::step (dist/self_stabilize.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/transform.hpp"
#include "mmlp/graph/hypergraph.hpp"

namespace mmlp {

/// Synchronous round-based flooding simulator over H.
class LocalRuntime {
 public:
  /// Derives the communication graph from the instance hypergraph
  /// (resource hyperedges only when `collaboration_oblivious`).
  explicit LocalRuntime(const Instance& instance,
                        bool collaboration_oblivious = false);

  const Hypergraph& graph() const { return graph_; }
  bool collaboration_oblivious() const { return collaboration_oblivious_; }

  /// Run `rounds` flooding rounds from the initial state where every
  /// agent knows only itself. Returns the per-agent knowledge sets
  /// (sorted agent ids); knowledge[v] == ball(graph(), v, rounds).
  std::vector<std::vector<AgentId>> flood(std::int32_t rounds) const;

  /// Bandwidth accounting for flood(rounds): one message per
  /// (agent, incident hyperedge, round), i.e. rounds · Σ_v deg(v).
  std::int64_t message_count(std::int32_t rounds) const;

 private:
  Hypergraph graph_;
  bool collaboration_oblivious_ = false;
  std::int64_t degree_sum_ = 0;
};

/// Knowledge-boundary-enforcing view of an Instance.
class AgentContext {
 public:
  /// `knowledge` is the set of agents within the horizon (as produced by
  /// LocalRuntime::flood); it must contain `self` and only valid ids.
  AgentContext(const Instance& instance, AgentId self,
               std::vector<AgentId> knowledge);

  AgentId self() const { return self_; }
  const std::vector<AgentId>& knowledge() const { return knowledge_; }
  bool knows(AgentId v) const;

  /// I_v with coefficients; throws CheckError unless v is known.
  CoefSpan agent_resources(AgentId v) const;
  /// K_v with coefficients; throws CheckError unless v is known.
  CoefSpan agent_parties(AgentId v) const;

  /// V_i with coefficients. A hyperedge is visible through any known
  /// member (its member list is part of that member's packet), so this
  /// throws CheckError only when no member of V_i is known.
  CoefSpan resource_support(ResourceId i) const;
  /// V_k with coefficients; same visibility rule as resource_support.
  CoefSpan party_support(PartyId k) const;

  /// Build the agent's world: restrict_to_agents over the knowledge set
  /// (every resource of every known agent, support truncated to known
  /// members, and exactly the fully known parties). Local ids follow
  /// global order, so the deterministic solvers pivot on the world
  /// exactly as on the global instance.
  Subinstance materialize() const;

  /// As materialize(), reusing `world`'s buffers and the worker's arena.
  void materialize_into(Subinstance& world, RestrictArena& arena) const;

 private:
  const Instance* instance_;
  AgentId self_;
  std::vector<AgentId> knowledge_;
};

}  // namespace mmlp
