// The knowledge-boundary checks: every accessor binary-searches the
// borrowed knowledge set; materialize_into is restrict_to_agents over it.
#include "mmlp/dist/runtime.hpp"

#include <algorithm>
#include <functional>

#include "mmlp/util/check.hpp"

namespace mmlp {

AgentContext::AgentContext(const Instance& instance, AgentId self,
                           std::span<const AgentId> knowledge)
    : instance_(&instance), self_(self), knowledge_(knowledge) {
  MMLP_CHECK_MSG(!knowledge_.empty(),
                 "agent " << self_ << " has an empty knowledge set");
  MMLP_CHECK_MSG(std::adjacent_find(knowledge_.begin(), knowledge_.end(),
                                    std::greater_equal<>()) ==
                     knowledge_.end(),
                 "knowledge set of agent " << self_
                                           << " is not strictly ascending");
  MMLP_CHECK_MSG(knowledge_.front() >= 0 &&
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
