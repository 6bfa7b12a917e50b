#include "mmlp/core/transform.hpp"

#include <algorithm>
#include <functional>

#include "mmlp/util/check.hpp"
#include "mmlp/util/stamp_guard.hpp"

namespace mmlp {

namespace {

void check_permutation(const std::vector<AgentId>& permutation, AgentId n) {
  MMLP_CHECK_EQ(permutation.size(), static_cast<std::size_t>(n));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  for (const AgentId target : permutation) {
    MMLP_CHECK_GE(target, 0);
    MMLP_CHECK_LT(target, n);
    MMLP_CHECK_EQ(seen[static_cast<std::size_t>(target)], 0);
    seen[static_cast<std::size_t>(target)] = 1;
  }
}

}  // namespace

Instance relabel_agents(const Instance& instance,
                        const std::vector<AgentId>& permutation) {
  check_permutation(permutation, instance.num_agents());
  Instance::Builder builder;
  builder.reserve(instance.num_agents(), 0, 0);
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    const ResourceId id = builder.add_resource();
    for (const Coef& entry : instance.resource_support(i)) {
      builder.set_usage(id, permutation[static_cast<std::size_t>(entry.id)],
                        entry.value);
    }
  }
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    const PartyId id = builder.add_party();
    for (const Coef& entry : instance.party_support(k)) {
      builder.set_benefit(id, permutation[static_cast<std::size_t>(entry.id)],
                          entry.value);
    }
  }
  return std::move(builder).build();
}

std::vector<double> relabel_solution(const std::vector<double>& x,
                                     const std::vector<AgentId>& permutation) {
  MMLP_CHECK_EQ(x.size(), permutation.size());
  std::vector<double> out(x.size(), 0.0);
  for (std::size_t v = 0; v < x.size(); ++v) {
    out[static_cast<std::size_t>(permutation[v])] = x[v];
  }
  return out;
}

namespace {

Instance scale_coefficients(const Instance& instance, double usage_factor,
                            double benefit_factor) {
  MMLP_CHECK_GT(usage_factor, 0.0);
  MMLP_CHECK_GT(benefit_factor, 0.0);
  Instance::Builder builder;
  builder.reserve(instance.num_agents(), 0, 0);
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    const ResourceId id = builder.add_resource();
    for (const Coef& entry : instance.resource_support(i)) {
      builder.set_usage(id, entry.id, entry.value * usage_factor);
    }
  }
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    const PartyId id = builder.add_party();
    for (const Coef& entry : instance.party_support(k)) {
      builder.set_benefit(id, entry.id, entry.value * benefit_factor);
    }
  }
  return std::move(builder).build();
}

}  // namespace

Instance scale_usages(const Instance& instance, double factor) {
  return scale_coefficients(instance, factor, 1.0);
}

Instance scale_benefits(const Instance& instance, double factor) {
  return scale_coefficients(instance, 1.0, factor);
}

Instance disjoint_union(const Instance& a, const Instance& b) {
  Instance::Builder builder;
  builder.reserve(a.num_agents() + b.num_agents(), 0, 0);
  for (ResourceId i = 0; i < a.num_resources(); ++i) {
    const ResourceId id = builder.add_resource();
    for (const Coef& entry : a.resource_support(i)) {
      builder.set_usage(id, entry.id, entry.value);
    }
  }
  for (ResourceId i = 0; i < b.num_resources(); ++i) {
    const ResourceId id = builder.add_resource();
    for (const Coef& entry : b.resource_support(i)) {
      builder.set_usage(id, a.num_agents() + entry.id, entry.value);
    }
  }
  for (PartyId k = 0; k < a.num_parties(); ++k) {
    const PartyId id = builder.add_party();
    for (const Coef& entry : a.party_support(k)) {
      builder.set_benefit(id, entry.id, entry.value);
    }
  }
  for (PartyId k = 0; k < b.num_parties(); ++k) {
    const PartyId id = builder.add_party();
    for (const Coef& entry : b.party_support(k)) {
      builder.set_benefit(id, a.num_agents() + entry.id, entry.value);
    }
  }
  return std::move(builder).build();
}

namespace {

std::int32_t lookup(const std::vector<std::int32_t>& sorted,
                    std::int32_t global) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), global);
  if (it == sorted.end() || *it != global) {
    return -1;
  }
  return static_cast<std::int32_t>(it - sorted.begin());
}

template <typename Id>
void sort_unique(std::vector<Id>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// The one restriction body. Candidates are the resources and parties
/// incident to the set, collected from the agents' rows and sorted, so
/// the kept ids come out ascending and the relabelling is monotone.
/// Parties are kept only when fully inside; resources too unless
/// `truncate_resources`, which keeps each one restricted to the set.
void restrict_impl(const Instance& instance, Subinstance& sub,
                   RestrictArena& arena, bool truncate_resources) {
  const std::vector<AgentId>& agents = sub.agents;
  MMLP_CHECK(std::adjacent_find(agents.begin(), agents.end(),
                                std::greater_equal<>()) == agents.end());
  MMLP_CHECK(agents.empty() ||
             (agents.front() >= 0 && agents.back() < instance.num_agents()));

  // Stamp the set into the persistent global -> local map; the guard
  // restores the all-−1 invariant on every exit path.
  auto& local_of = arena.agent_local;
  if (local_of.size() < static_cast<std::size_t>(instance.num_agents())) {
    local_of.assign(static_cast<std::size_t>(instance.num_agents()), -1);
  }
  const StampGuard guard(local_of, agents);
  for (std::size_t idx = 0; idx < agents.size(); ++idx) {
    local_of[static_cast<std::size_t>(agents[idx])] =
        static_cast<std::int32_t>(idx);
  }

  sub.resources.clear();
  sub.parties.clear();
  std::size_t num_usages = 0;
  std::size_t num_benefits = 0;
  for (const AgentId v : agents) {
    for (const Coef& entry : instance.agent_resources(v)) {
      sub.resources.push_back(entry.id);
      ++num_usages;
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      sub.parties.push_back(entry.id);
      ++num_benefits;
    }
  }
  sort_unique(sub.resources);
  sort_unique(sub.parties);

  const auto inside = [&](const CoefSpan& support) {
    return std::all_of(support.begin(), support.end(), [&](const Coef& entry) {
      return local_of[static_cast<std::size_t>(entry.id)] >= 0;
    });
  };
  Instance::Builder builder;
  builder.reserve(static_cast<AgentId>(agents.size()), 0, 0);
  builder.reserve_nonzeros(num_usages, num_benefits);
  std::size_t kept = 0;
  for (const ResourceId i : sub.resources) {
    const CoefSpan support = instance.resource_support(i);
    if (!truncate_resources && !inside(support)) {
      continue;
    }
    const ResourceId local = builder.add_resource();
    for (const Coef& entry : support) {
      const std::int32_t member = local_of[static_cast<std::size_t>(entry.id)];
      if (member >= 0) {
        builder.set_usage(local, member, entry.value);
      }
    }
    sub.resources[kept++] = i;
  }
  sub.resources.resize(kept);
  kept = 0;
  for (const PartyId k : sub.parties) {
    const CoefSpan support = instance.party_support(k);
    if (!inside(support)) {
      continue;
    }
    const PartyId local = builder.add_party();
    for (const Coef& entry : support) {
      builder.set_benefit(local, local_of[static_cast<std::size_t>(entry.id)],
                          entry.value);
    }
    sub.parties[kept++] = k;
  }
  sub.parties.resize(kept);
  sub.instance = std::move(builder).build();
}

}  // namespace

AgentId Subinstance::local_agent(AgentId global) const {
  return lookup(agents, global);
}

ResourceId Subinstance::local_resource(ResourceId global) const {
  return lookup(resources, global);
}

PartyId Subinstance::local_party(PartyId global) const {
  return lookup(parties, global);
}

void restrict_to_agents(const Instance& instance, Subinstance& sub,
                        RestrictArena& arena) {
  restrict_impl(instance, sub, arena, true);
}

Subinstance induce(const Instance& instance,
                   const std::vector<AgentId>& sorted_agents) {
  Subinstance sub;
  sub.agents = sorted_agents;
  RestrictArena arena;
  restrict_impl(instance, sub, arena, false);
  return sub;
}

}  // namespace mmlp
