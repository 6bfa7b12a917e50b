#include "mmlp/core/view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/growth.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(LocalView, PathViewRadiusOne) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  EXPECT_EQ(view.center, 2);
  EXPECT_EQ(view.agents, (std::vector<AgentId>{1, 2, 3}));
  // I^u: resources touching {1,2,3} = resources 0..3 (couples 0-1 ... 3-4).
  EXPECT_EQ(view.resources.size(), 4u);
  // K^u: singleton parties of 1, 2, 3 are fully visible.
  EXPECT_EQ(view.parties, (std::vector<PartyId>{1, 2, 3}));
}

TEST(LocalView, LocalIndexing) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  EXPECT_EQ(view.local_index(1), 0);
  EXPECT_EQ(view.local_index(2), 1);
  EXPECT_EQ(view.local_index(3), 2);
  EXPECT_EQ(view.local_index(0), -1);
}

TEST(LocalView, ResourceEntriesRestrictedToBall) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 2, 1);
  // Resource 0 couples agents {0, 1}; only agent 1 is in the ball.
  const auto it = std::find(view.resources.begin(), view.resources.end(), 0);
  ASSERT_NE(it, view.resources.end());
  const auto& entries =
      view.resource_entries(static_cast<std::size_t>(it - view.resources.begin()));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(view.agents[static_cast<std::size_t>(entries[0].id)], 1);
}

TEST(LocalView, FullRadiusSeesWholeInstance) {
  const auto instance = testing::path_instance(5);
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 10);
  EXPECT_EQ(view.agents.size(), 5u);
  EXPECT_EQ(view.resources.size(), 4u);
  EXPECT_EQ(view.parties.size(), 5u);
}

// The view of Figure 2 computed straight from the definitions with
// ordered sets: the oracle extract_view_into is checked against.
LocalView brute_force_view(const Instance& instance, AgentId u,
                           const std::vector<AgentId>& ball_of_u) {
  LocalView view;
  view.center = u;
  view.agents = ball_of_u;
  std::map<AgentId, std::int32_t> local;
  for (std::size_t idx = 0; idx < ball_of_u.size(); ++idx) {
    local[ball_of_u[idx]] = static_cast<std::int32_t>(idx);
  }
  std::set<ResourceId> resources;
  std::set<PartyId> parties;
  for (const AgentId v : ball_of_u) {
    for (const Coef& entry : instance.agent_resources(v)) {
      resources.insert(entry.id);
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      parties.insert(entry.id);
    }
  }
  for (const ResourceId i : resources) {  // I^u, with V^u_i = V_i ∩ V^u
    view.resources.push_back(i);
    for (const Coef& entry : instance.resource_support(i)) {
      if (local.count(entry.id) != 0) {
        view.resource_data.push_back({local.at(entry.id), entry.value});
      }
    }
    view.resource_offsets.push_back(static_cast<std::int32_t>(view.resource_data.size()));
  }
  for (const PartyId k : parties) {  // K^u: V_k ⊆ V^u
    const CoefSpan support = instance.party_support(k);
    if (!std::all_of(support.begin(), support.end(),
                     [&](const Coef& entry) { return local.count(entry.id) != 0; })) {
      continue;
    }
    view.parties.push_back(k);
    for (const Coef& entry : support) {
      view.party_data.push_back({local.at(entry.id), entry.value});
    }
    view.party_offsets.push_back(static_cast<std::int32_t>(view.party_data.size()));
  }
  return view;
}

void expect_same_view(const LocalView& got, const LocalView& want,
                      const std::string& context) {
  EXPECT_EQ(got.center, want.center) << context;
  EXPECT_EQ(got.agents, want.agents) << context;
  EXPECT_EQ(got.resources, want.resources) << context;
  EXPECT_EQ(got.parties, want.parties) << context;
  EXPECT_EQ(got.resource_offsets, want.resource_offsets) << context;
  EXPECT_EQ(got.resource_data, want.resource_data) << context;
  EXPECT_EQ(got.party_offsets, want.party_offsets) << context;
  EXPECT_EQ(got.party_data, want.party_data) << context;
}

std::size_t candidate_resource_ids(const Instance& instance,
                                   const std::vector<AgentId>& ball_of_u) {
  std::size_t count = 0;
  for (const AgentId v : ball_of_u) {
    count += instance.agent_resources(v).size();
  }
  return count;
}

// `agents` agents that all share resource 0 and party 0, so every
// candidate id list holds one id `agents` times.
Instance one_resource_one_party(AgentId agents) {
  Instance::Builder builder;
  const ResourceId i = builder.add_resource();
  const PartyId k = builder.add_party();
  for (AgentId v = 0; v < agents; ++v) {
    builder.add_agent();
    builder.set_usage(i, v, 1.0 + 0.25 * v).set_benefit(k, v, 2.0 - 0.001 * v);
  }
  return std::move(builder).build();
}

TEST(LocalView, ExtractionMatchesTheSetDefinitions) {
  // One scratch for every view: no buffer may carry anything from one
  // extraction into the next.
  ViewScratch scratch;
  LocalView view;
  std::size_t short_lists = 0;
  std::size_t long_lists = 0;
  const auto check_all = [&](const Instance& instance, std::int32_t R,
                             const std::string& name) {
    const auto balls = all_balls(instance.communication_graph(), R);
    for (AgentId u = 0; u < instance.num_agents(); ++u) {
      const auto& ball_of_u = balls[static_cast<std::size_t>(u)];
      extract_view_into(instance, u, R, ball_of_u, view, scratch);
      expect_same_view(view, brute_force_view(instance, u, ball_of_u),
                       name + " R=" + std::to_string(R) + " u=" + std::to_string(u));
      (candidate_resource_ids(instance, ball_of_u) <= 64 ? short_lists : long_lists)++;
    }
  };
  const auto random = make_random_instance({
      .num_agents = 300,
      .resources_per_agent = 3,
      .parties_per_agent = 2,
      .max_support = 4,
      .seed = 19,
  });
  const auto torus =
      make_grid_instance({.dims = {9, 9}, .torus = true, .randomize = true, .seed = 2});
  for (const std::int32_t R : {1, 2, 3}) {
    check_all(random, R, "random");
    check_all(torus, R, "torus");
  }
  // The id lists straddle the rank-dedupe cutoff, so both paths ran.
  EXPECT_GT(short_lists, 0u);
  EXPECT_GT(long_lists, 0u);

  // Lists whose ids are all equal, below and above the cutoff.
  check_all(one_resource_one_party(5), 1, "equal ids x5");
  check_all(one_resource_one_party(100), 1, "equal ids x100");

  // A view that sees no party at all: the only party sits on agent 3 of
  // a path, out of sight of agent 0 at radius 1.
  Instance::Builder builder;
  for (AgentId v = 0; v < 4; ++v) {
    builder.add_agent();
  }
  for (AgentId v = 0; v + 1 < 4; ++v) {
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, v, 1.0).set_usage(i, v + 1, 0.5);
  }
  builder.set_benefit(builder.add_party(), 3, 1.0);
  const auto far_party = std::move(builder).build();
  const auto balls = all_balls(far_party.communication_graph(), 1);
  extract_view_into(far_party, 0, 1, balls[0], view, scratch);
  EXPECT_TRUE(view.parties.empty());
  EXPECT_EQ(view.party_offsets, (std::vector<std::int32_t>{0}));
  expect_same_view(view, brute_force_view(far_party, 0, balls[0]), "far party");
  check_all(far_party, 1, "far party");
}

TEST(ViewLp, FullViewMatchesGlobalOptimum) {
  const auto instance = testing::two_agent_instance();
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 2);
  const auto solution = solve_view_lp(view);
  EXPECT_EQ(solution.status, LpStatus::kOptimal);
  EXPECT_NEAR(solution.omega, 0.5, 1e-9);
}

TEST(ViewLp, EmptyPartySetGivesZero) {
  // Radius-1 view of an end agent of a long path where all parties are
  // out of sight: build a path with parties only at the far end.
  Instance::Builder builder;
  for (AgentId v = 0; v < 4; ++v) {
    builder.add_agent();
  }
  for (AgentId v = 0; v + 1 < 4; ++v) {
    const ResourceId i = builder.add_resource();
    builder.set_usage(i, v, 1.0).set_usage(i, v + 1, 1.0);
  }
  const PartyId k = builder.add_party();
  builder.set_benefit(k, 3, 1.0);
  const auto instance = std::move(builder).build();
  const auto h = instance.communication_graph();
  const auto view = extract_view(instance, h, 0, 1);
  EXPECT_TRUE(view.parties.empty());
  const auto solution = solve_view_lp(view);
  for (const double value : solution.x) {
    EXPECT_DOUBLE_EQ(value, 0.0);
  }
}

TEST(ViewLp, ViewOmegaAtLeastGlobalOmega) {
  // (13): the global optimum is feasible for every view LP, so
  // ω^u >= ω*.
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const auto h = instance.communication_graph();
  // Global optimum on a uniform torus: symmetry gives ω* = 1 (x = 1/5).
  for (const AgentId u : {0, 7, 12}) {
    const auto view = extract_view(instance, h, u, 2);
    const auto solution = solve_view_lp(view);
    EXPECT_GE(solution.omega, 1.0 - 1e-7);
  }
}

TEST(GrowthSets, PathSetsByHand) {
  const auto instance = testing::path_instance(4);
  const auto h = instance.communication_graph();
  const auto balls = all_balls(h, 1);
  const auto sets = compute_growth_sets(instance, balls);
  // Ball sizes on the path 0-1-2-3: 2, 3, 3, 2.
  EXPECT_EQ(sets.ball_size, (std::vector<std::size_t>{2, 3, 3, 2}));
  // Resource 0 couples {0,1}: U = B(0)∪B(1) = {0,1,2}, n = 2.
  EXPECT_EQ(sets.N_i[0], 3u);
  EXPECT_EQ(sets.n_i[0], 2u);
  // Singleton party of agent 0: S_k = B(0) of size 2, M_k = 2.
  EXPECT_EQ(sets.m_k[0], 2u);
  EXPECT_EQ(sets.M_k[0], 2u);
  // β_0 = min over resources of agent 0 = 2/3.
  EXPECT_NEAR(sets.beta[0], 2.0 / 3.0, 1e-12);
  // β_1: resources {0,1}: n/N = 2/3 (res 0: balls 2,3 → N=3) and res 1
  // couples {1,2}: U = B(1)∪B(2) = {0..3}, n = 3 → 3/4. β_1 = 2/3.
  EXPECT_NEAR(sets.beta[1], 2.0 / 3.0, 1e-12);
}

TEST(GrowthSets, TheoremBoundsHold) {
  // Theorem 3's internal inequalities: max_k M_k/m_k <= γ(R−1) and
  // max_i N_i/n_i <= γ(R).
  const auto instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  const auto h = instance.communication_graph();
  for (const std::int32_t R : {1, 2}) {
    const auto balls = all_balls(h, R);
    const auto sets = compute_growth_sets(instance, balls);
    const double gamma_r_minus_1 = growth_gamma(h, R - 1);
    const double gamma_r = growth_gamma(h, R);
    EXPECT_LE(sets.max_party_ratio(), gamma_r_minus_1 + 1e-9) << "R=" << R;
    EXPECT_LE(sets.max_resource_ratio(), gamma_r + 1e-9) << "R=" << R;
    EXPECT_LE(sets.ratio_bound, gamma_r_minus_1 * gamma_r + 1e-9);
  }
}

TEST(GrowthSets, SkIncludesVk) {
  // With party hyperedges in H, V_k is a clique, so S_k ⊇ V_k.
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  const auto h = instance.communication_graph();
  const auto balls = all_balls(h, 1);
  const auto sets = compute_growth_sets(instance, balls);
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    EXPECT_GE(sets.m_k[static_cast<std::size_t>(k)],
              instance.party_support(k).size());
  }
}

}  // namespace
}  // namespace mmlp
