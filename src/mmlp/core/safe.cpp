// eq. (2) in two shapes: safe_choice is the literal per-agent rule on
// explicit (I_v, |V_i|) inputs (the distributed path goes through it so
// the knowledge boundary stays visible); run_safe is the fused scan
// behind every other entry point — over all agents, or over an
// incremental run's dirty set — which skips the per-entry invariant
// checks: the instance passed validate() at build, so a_iv > 0 and
// V_i ≠ ∅ hold.
#include "mmlp/core/safe.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "mmlp/engine/session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

double safe_choice_unchecked(const Instance& instance, AgentId v) {
  double choice = std::numeric_limits<double>::infinity();
  for (const Coef& entry : instance.agent_resources(v)) {
    const auto size =
        static_cast<double>(instance.resource_support_size(entry.id));
    choice = std::min(choice, 1.0 / (entry.value * size));
  }
  return choice;
}

/// The one loop: eq. (2) for every agent of `agents` (null = all of
/// them), written into x, which must already hold one slot per agent.
void run_safe(const Instance& instance, const std::vector<AgentId>* agents,
              std::vector<double>& x, ThreadPool* pool) {
  obs::ObsSpan span("safe.solve", "core");
  chunked_parallel_for(
      agents != nullptr ? agents->size() : x.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t index = begin; index < end; ++index) {
          const AgentId v = agents != nullptr ? (*agents)[index]
                                              : static_cast<AgentId>(index);
          x[static_cast<std::size_t>(v)] = safe_choice_unchecked(instance, v);
        }
      },
      pool);
}

}  // namespace

double safe_choice(CoefSpan agent_resources,
                   std::span<const std::size_t> support_sizes) {
  MMLP_CHECK(!agent_resources.empty());
  MMLP_CHECK_EQ(agent_resources.size(), support_sizes.size());
  double choice = std::numeric_limits<double>::infinity();
  for (std::size_t idx = 0; idx < agent_resources.size(); ++idx) {
    const double a = agent_resources[idx].value;
    const auto size = static_cast<double>(support_sizes[idx]);
    MMLP_CHECK_GT(a, 0.0);
    MMLP_CHECK_GT(size, 0.0);
    choice = std::min(choice, 1.0 / (a * size));
  }
  return choice;
}

std::vector<double> safe_solution(const Instance& instance) {
  std::vector<double> x(static_cast<std::size_t>(instance.num_agents()), 0.0);
  run_safe(instance, nullptr, x, nullptr);
  return x;
}

std::vector<double> safe_solution_with(engine::Session& session) {
  const Instance& instance = session.instance();
  std::vector<double> x(static_cast<std::size_t>(instance.num_agents()), 0.0);
  run_safe(instance, nullptr, x, session.pool());
  return x;
}

std::vector<double> safe_solution_incremental(engine::Session& session,
                                              IncrementalStats* stats) {
  const Instance& instance = session.instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  engine::SolutionMemo& memo = session.solution_memo("safe");

  // Radius 0: eq. (2) for agent u reads a_iu for i ∈ I_u and |V_i|, and
  // every delta's touched closure contains each agent one of those
  // inputs changed for (the edited agent; all members of a
  // membership-edited row).
  std::optional<std::vector<AgentId>> dirty;
  if (memo.valid) {
    dirty = session.dirty_since(memo.revision, 0, false);
  }
  IncrementalStats accounting;
  accounting.incremental = dirty.has_value();
  accounting.dirty_agents = dirty.has_value() ? dirty->size() : n;
  accounting.resolved_agents = accounting.dirty_agents;
  // Invalidate before any in-place mutation: if the run below is
  // abandoned mid-way (cancellation, a thrown check), the memo must not
  // pass itself off as a coherent solution — the next request then
  // runs every agent instead of serving half-spliced bits.
  memo.valid = false;
  memo.x.resize(n, 0.0);  // added agents are always in the dirty set
  run_safe(instance, dirty.has_value() ? &*dirty : nullptr, memo.x,
           session.pool());
  memo.revision = session.revision();
  memo.valid = true;
  if (stats != nullptr) {
    *stats = accounting;
  }
  return memo.x;
}

}  // namespace mmlp
