// The Section 4 lower-bound construction (Figure 1): one complete
// (d,D)-ary hypertree T_q of height 2R−1 per vertex q of a ∆-regular
// bipartite template graph Q with girth > 4r (∆ = d^R·D^(R−1)), leaves
// identified along the edges of Q. Locality then forces any horizon-r
// algorithm to output the same x on the two non-isomorphic gluings,
// which pins its approximation ratio to ∆_I^V(1 − 1/∆_K^V) − o(1)
// (Theorem 1; Corollary 2 for the binary case).
#include "mmlp/gen/lowerbound.hpp"

#include <algorithm>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/regular_bipartite.hpp"
#include "mmlp/util/check.hpp"

namespace mmlp {

namespace {

std::int64_t ipow(std::int64_t base, std::int32_t exp) {
  std::int64_t result = 1;
  for (std::int32_t e = 0; e < exp; ++e) {
    MMLP_CHECK_LT(result, std::int64_t{1} << 40);
    result *= base;
  }
  return result;
}

}  // namespace

AgentId LowerBoundInstance::agent_id(std::int32_t tree_index,
                                     std::int32_t local) const {
  MMLP_CHECK_GE(tree_index, 0);
  MMLP_CHECK_LT(tree_index, num_trees);
  MMLP_CHECK_GE(local, 0);
  MMLP_CHECK_LT(local, tree_size);
  return tree_index * tree_size + local;
}

std::int32_t LowerBoundInstance::tree_of(AgentId agent) const {
  return agent / tree_size;
}

std::int32_t LowerBoundInstance::local_of(AgentId agent) const {
  return agent % tree_size;
}

std::int32_t LowerBoundInstance::level_of(AgentId agent) const {
  return tree.level(local_of(agent));
}

std::vector<AgentId> LowerBoundInstance::leaves_of(std::int32_t tree_index) const {
  std::vector<AgentId> result;
  result.reserve(tree.leaves().size());
  for (const std::int32_t local : tree.leaves()) {
    result.push_back(agent_id(tree_index, local));
  }
  return result;
}

LowerBoundInstance build_lower_bound_instance(const LowerBoundParams& params) {
  MMLP_CHECK_GE(params.d, 1);
  MMLP_CHECK_GE(params.D, 1);
  MMLP_CHECK_MSG(params.d * params.D > 1,
                 "dD > 1 required (d = D = 1 has no content)");
  MMLP_CHECK_GE(params.r, 1);
  MMLP_CHECK_GT(params.R, params.r);

  LowerBoundInstance lb;
  lb.params = params;
  const std::int64_t degree64 =
      ipow(params.d, params.R) * ipow(params.D, params.R - 1);
  MMLP_CHECK_MSG(degree64 <= 4096, "degree d^R D^(R-1) = " << degree64
                                   << " too large to simulate");
  lb.degree = static_cast<std::int32_t>(degree64);

  // Template graph Q with girth >= 4r + 2.
  Rng rng(params.seed);
  const std::int32_t min_girth = 4 * params.r + 2;
  auto q_result = high_girth_bipartite(lb.degree, min_girth,
                                       params.q_nodes_per_side, rng);
  MMLP_CHECK_MSG(q_result.has_value(),
                 "could not sample Q (degree " << lb.degree << ", girth "
                 << min_girth << "); raise q_nodes_per_side");
  lb.q = std::move(q_result->graph);
  lb.num_trees = lb.q.num_vertices();

  // Hypertree template of height 2R − 1; leaves count must equal Δ.
  lb.tree = Hypertree::complete(params.d, params.D, 2 * params.R - 1);
  lb.tree_size = lb.tree.num_nodes();
  MMLP_CHECK_EQ(static_cast<std::int64_t>(lb.tree.leaves().size()), degree64);

  const std::int64_t total_agents =
      static_cast<std::int64_t>(lb.num_trees) * lb.tree_size;
  MMLP_CHECK_MSG(total_agents <= (std::int64_t{1} << 24),
                 "instance would have " << total_agents << " agents");

  Instance::Builder builder;
  builder.reserve(static_cast<AgentId>(total_agents), 0, 0);

  // Type I and II hyperedges: one resource/party per tree edge per copy.
  for (std::int32_t t = 0; t < lb.num_trees; ++t) {
    for (const HypertreeEdge& edge : lb.tree.edges()) {
      if (edge.type == HyperedgeType::kTypeI) {
        const ResourceId i = builder.add_resource();
        builder.set_usage(i, lb.agent_id(t, edge.parent), 1.0);
        for (const std::int32_t child : edge.children) {
          builder.set_usage(i, lb.agent_id(t, child), 1.0);
        }
      } else {
        const PartyId k = builder.add_party();
        const double c = 1.0 / static_cast<double>(params.D);
        builder.set_benefit(k, lb.agent_id(t, edge.parent), c);
        for (const std::int32_t child : edge.children) {
          builder.set_benefit(k, lb.agent_id(t, child), c);
        }
      }
    }
  }

  // Leaf pairing f via the edges of Q: the j-th leaf of T_q is associated
  // with the j-th neighbour of q (sorted order), and the two leaves of an
  // edge {q, w} form a type III party.
  lb.pairing.resize(static_cast<std::size_t>(total_agents));
  for (AgentId v = 0; v < static_cast<AgentId>(total_agents); ++v) {
    lb.pairing[static_cast<std::size_t>(v)] = v;  // identity off the leaves
  }
  std::vector<std::vector<std::int32_t>> sorted_adj(
      static_cast<std::size_t>(lb.num_trees));
  for (std::int32_t qv = 0; qv < lb.num_trees; ++qv) {
    sorted_adj[static_cast<std::size_t>(qv)] = lb.q.neighbors(qv);
    auto& adj = sorted_adj[static_cast<std::size_t>(qv)];
    std::sort(adj.begin(), adj.end());
    MMLP_CHECK_EQ(adj.size(), static_cast<std::size_t>(lb.degree));
  }
  for (std::int32_t qv = 0; qv < lb.num_trees; ++qv) {
    const auto leaves_q = lb.leaves_of(qv);
    for (std::size_t slot = 0; slot < leaves_q.size(); ++slot) {
      const std::int32_t w = sorted_adj[static_cast<std::size_t>(qv)][slot];
      // Slot of q in w's adjacency.
      const auto& adj_w = sorted_adj[static_cast<std::size_t>(w)];
      const auto it = std::lower_bound(adj_w.begin(), adj_w.end(), qv);
      MMLP_CHECK(it != adj_w.end() && *it == qv);
      const auto back_slot = static_cast<std::size_t>(it - adj_w.begin());
      const AgentId leaf = leaves_q[slot];
      const AgentId partner = lb.leaves_of(w)[back_slot];
      lb.pairing[static_cast<std::size_t>(leaf)] = partner;
      if (leaf < partner) {  // add each type III party once
        const PartyId k = builder.add_party();
        builder.set_benefit(k, leaf, 1.0);
        builder.set_benefit(k, partner, 1.0);
      }
    }
  }

  lb.instance = std::move(builder).build();

  // Paper invariants: Δ_V^I = Δ_V^K = 1, |V_i| = d+1, |V_k| ≤ D+1.
  const DegreeBounds bounds = lb.instance.degree_bounds();
  MMLP_CHECK_EQ(bounds.delta_I_of_V, 1u);
  MMLP_CHECK_EQ(bounds.delta_K_of_V, 1u);
  MMLP_CHECK_EQ(bounds.delta_V_of_I, static_cast<std::size_t>(params.d) + 1);
  MMLP_CHECK_LE(bounds.delta_V_of_K, static_cast<std::size_t>(params.D) + 1);
  return lb;
}

std::vector<double> compute_delta(const LowerBoundInstance& lb,
                                  const std::vector<double>& x) {
  MMLP_CHECK_EQ(x.size(), static_cast<std::size_t>(lb.instance.num_agents()));
  std::vector<double> delta(static_cast<std::size_t>(lb.num_trees), 0.0);
  for (std::int32_t qv = 0; qv < lb.num_trees; ++qv) {
    double sum = 0.0;
    for (const AgentId leaf : lb.leaves_of(qv)) {
      sum += x[static_cast<std::size_t>(leaf)] -
             x[static_cast<std::size_t>(lb.pairing[static_cast<std::size_t>(leaf)])];
    }
    delta[static_cast<std::size_t>(qv)] = sum;
  }
  return delta;
}

std::int32_t select_p(const std::vector<double>& delta) {
  MMLP_CHECK(!delta.empty());
  const auto it = std::max_element(delta.begin(), delta.end());
  MMLP_CHECK_GE(*it, -1e-9);  // Σ δ(q) = 0, so the max is nonnegative
  return static_cast<std::int32_t>(it - delta.begin());
}

SPrime build_s_prime(const LowerBoundInstance& lb, std::int32_t p) {
  MMLP_CHECK_GE(p, 0);
  MMLP_CHECK_LT(p, lb.num_trees);
  const Hypergraph h = lb.instance.communication_graph(false);

  // V′ = T_p ∪ ∪_{u∈L_p} B_H(u, 2r).
  std::vector<AgentId> members;
  for (std::int32_t local = 0; local < lb.tree_size; ++local) {
    members.push_back(lb.agent_id(p, local));
  }
  for (const AgentId leaf : lb.leaves_of(p)) {
    const auto around = ball(h, leaf, 2 * lb.params.r);
    members.insert(members.end(), around.begin(), around.end());
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  // Keep the hyperedges fully contained in V′.
  SPrime sub{induce(lb.instance, members)};
  sub.root_local = sub.local_agent(lb.agent_id(p, 0));
  MMLP_CHECK_GE(sub.root_local, 0);
  sub.tp_local.reserve(static_cast<std::size_t>(lb.tree_size));
  for (std::int32_t local = 0; local < lb.tree_size; ++local) {
    const std::int32_t mapped = sub.local_agent(lb.agent_id(p, local));
    MMLP_CHECK_GE(mapped, 0);
    sub.tp_local.push_back(mapped);
  }
  return sub;
}

std::vector<double> alternating_solution(const SPrime& sub) {
  const Hypergraph h = sub.instance.communication_graph(false);
  BallCollector bfs(h);
  bfs.collect(sub.root_local, h.num_nodes());
  std::vector<double> x(static_cast<std::size_t>(h.num_nodes()), 0.0);
  for (NodeId v = 0; v < h.num_nodes(); ++v) {
    const std::int32_t dist = bfs.last_distance(v);
    MMLP_CHECK_MSG(dist >= 0, "S' is connected by construction");
    if (dist % 2 == 0) {
      x[static_cast<std::size_t>(v)] = 1.0;
    }
  }
  return x;
}

double theorem1_bound(std::int32_t d, std::int32_t D) {
  return static_cast<double>(d) / 2.0 + 1.0 -
         1.0 / (2.0 * static_cast<double>(D));
}

double theorem1_bound_finite(std::int32_t d, std::int32_t D, std::int32_t R) {
  const double dd = d;
  const double DD = D;
  const double tail =
      (dd + 2.0 - 2.0 * dd * DD - 1.0 / DD) /
      (2.0 * static_cast<double>(ipow(d, R)) * static_cast<double>(ipow(D, R)) -
       2.0);
  return theorem1_bound(d, D) + tail;
}

}  // namespace mmlp
