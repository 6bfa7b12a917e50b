// Instance transformations and the solution laws they obey.
//
// These are the algebraic tools the paper's arguments use implicitly:
// Section 4 restricts S to an induced subinstance S′; the identifier
// model (Section 1.5) implies algorithm outputs are equivariant under
// agent relabelling; and the LP structure gives exact scaling laws
// (halving all a_iv doubles ω*, scaling all c_kv scales ω* likewise).
// Tests assert each law against the solvers.
#pragma once

#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {

/// Relabel agents: new id of agent v is permutation[v]. Resources and
/// parties keep their indices; support lists are re-sorted.
Instance relabel_agents(const Instance& instance,
                        const std::vector<AgentId>& permutation);

/// Push a solution vector through the same relabelling (x'[perm[v]] = x[v]).
std::vector<double> relabel_solution(const std::vector<double>& x,
                                     const std::vector<AgentId>& permutation);

/// Multiply every a_iv by `factor` (> 0): resources become tighter
/// (factor > 1) or looser. ω* scales by exactly 1/factor.
Instance scale_usages(const Instance& instance, double factor);

/// Multiply every c_kv by `factor` (> 0). ω* scales by exactly factor.
Instance scale_benefits(const Instance& instance, double factor);

/// Disjoint union: agents/resources/parties of `b` are appended after
/// those of `a`. ω*(union) = min(ω*(a), ω*(b)).
Instance disjoint_union(const Instance& a, const Instance& b);

/// A sub-instance over a sorted agent set with its monotone local ->
/// global id maps: local id = position, every list ascending, so every
/// CSR row of `instance` is the order-preserving relabelling of the
/// global row it came from.
struct Subinstance {
  Instance instance;
  std::vector<AgentId> agents;
  std::vector<ResourceId> resources;
  std::vector<PartyId> parties;

  /// global -> local id (binary search); -1 when not included.
  AgentId local_agent(AgentId global) const;
  ResourceId local_resource(ResourceId global) const;
  PartyId local_party(PartyId global) const;
};

/// Reusable scratch for restrict_to_agents: a global -> local agent
/// stamp map that stays allocated (all −1 between calls), so one worker
/// can restrict to many agent sets at O(1) per coefficient.
struct RestrictArena {
  std::vector<std::int32_t> agent_local;
};

/// The LOCAL world of the agent set `sub.agents` (sorted, unique, in
/// range): every resource incident to the set, its support truncated to
/// the set, and exactly the parties whose support lies fully inside the
/// set (a truncated benefit row would misstate the party's objective).
/// Fills the rest of `sub`, reusing its buffers. This is what an agent
/// that knows B(v, r) can rebuild, and what a shard over B(core, halo)
/// serves.
void restrict_to_agents(const Instance& instance, Subinstance& sub,
                        RestrictArena& arena);

/// Induced subinstance on a sorted agent subset: keeps the resources and
/// parties whose support is fully inside the subset (the S′ operation of
/// Section 4.3 in general form). Every kept agent must retain at least
/// one resource; callers choose closed subsets (e.g. unions of balls).
Subinstance induce(const Instance& instance,
                   const std::vector<AgentId>& sorted_agents);

}  // namespace mmlp
