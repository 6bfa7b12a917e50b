// The knowledge boundary of the LOCAL model (Section 1.1).
//
// AgentContext is what one agent may read. Distributed algorithms read
// Instance data only through a context, and every accessor throws
// CheckError when the request reaches outside the agent's horizon, so a
// per-agent algorithm is *structurally* unable to use information a real
// message-passing execution would not have. The context borrows the
// agent's knowledge set (the sorted agent ids it has heard of) from its
// source: a session ball or a SelfStabilizingFlood table, whichever
// run_local (dist/algorithms.hpp) was given. materialize() converts the
// horizon into a standalone sub-Instance (the agent's "world") on which
// the centralized machinery (views, LPs, balls) can run unchanged. It is
// restrict_to_agents (core/transform.hpp), the same restriction that
// cuts a shard out of a sharded instance; the materialize_into variant
// lets a worker loop reuse one RestrictArena and one world's id buffers
// across all the agents it processes.
#pragma once

#include <span>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/transform.hpp"

namespace mmlp {

/// Knowledge-boundary-enforcing view of an Instance.
class AgentContext {
 public:
  /// `knowledge` is the set of agents within the horizon, borrowed for
  /// the context's lifetime. It must be non-empty, strictly ascending,
  /// in range and contain `self`; anything else is a CheckError.
  AgentContext(const Instance& instance, AgentId self,
               std::span<const AgentId> knowledge);

  AgentId self() const { return self_; }
  std::span<const AgentId> knowledge() const { return knowledge_; }
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
  std::span<const AgentId> knowledge_;
};

}  // namespace mmlp
