#include "mmlp/shard/extract.hpp"

#include <algorithm>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace mmlp::shard {

ShardInstance extract_shard(const Instance& global, const Hypergraph& graph,
                            std::vector<AgentId> core,
                            std::int32_t halo_radius) {
  obs::ObsSpan span("shard.extract", "engine.shard");
  MMLP_CHECK_MSG(!core.empty(), "shard core must be nonempty");
  MMLP_CHECK_GE(halo_radius, 1);
  MMLP_CHECK(std::is_sorted(core.begin(), core.end()));
  MMLP_CHECK_GE(core.front(), 0);
  MMLP_CHECK_LT(core.back(), global.num_agents());
  MMLP_CHECK_EQ(graph.num_nodes(), global.num_agents());

  ShardInstance shard;
  shard.core = std::move(core);
  // Core ∪ halo in one multi-source BFS; the result is sorted, so the
  // restriction's local ids preserve global order.
  shard.agents = multi_source_ball(graph, shard.core, halo_radius);
  RestrictArena arena;
  restrict_to_agents(global, shard, arena);

  shard.core_local.reserve(shard.core.size());
  for (const AgentId v : shard.core) {
    const AgentId local = shard.local_agent(v);
    MMLP_CHECK_GE(local, 0);  // a core agent is always inside its own ball
    shard.core_local.push_back(local);
  }
  return shard;
}

}  // namespace mmlp::shard
