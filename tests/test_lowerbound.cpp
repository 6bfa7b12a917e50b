#include "mmlp/gen/lowerbound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "mmlp/core/safe.hpp"
#include "mmlp/core/solution.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {
namespace {

/// Shared construction (d=2, D=2, r=1, R=2): Δ = 8, Q = PG(2,7) incidence
/// (57 per side), 114 hypertrees of 15 nodes each.
class LowerBoundFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LowerBoundParams params;
    params.d = 2;
    params.D = 2;
    params.r = 1;
    params.R = 2;
    params.seed = 5;
    lb_ = new LowerBoundInstance(build_lower_bound_instance(params));
  }
  static void TearDownTestSuite() {
    delete lb_;
    lb_ = nullptr;
  }
  static LowerBoundInstance* lb_;
};

LowerBoundInstance* LowerBoundFixture::lb_ = nullptr;

TEST_F(LowerBoundFixture, DegreeAndSizes) {
  EXPECT_EQ(lb_->degree, 8);  // d^R D^(R-1) = 4·2
  EXPECT_EQ(lb_->num_trees, 114);
  EXPECT_EQ(lb_->tree_size, 15);  // 1+2+4+8
  EXPECT_EQ(lb_->instance.num_agents(), 114 * 15);
}

TEST_F(LowerBoundFixture, QHasRequiredGirth) {
  // r = 1 ⇒ no cycles shorter than 6.
  const auto girth = lb_->q.girth();
  ASSERT_TRUE(girth.has_value());
  EXPECT_GE(*girth, 6);
  EXPECT_TRUE(lb_->q.is_regular(8));
}

TEST_F(LowerBoundFixture, PaperDegreeBounds) {
  // Theorem 1's restrictions: a_iv ∈ {0,1}, Δ_V^I = Δ_V^K = 1,
  // |V_i| = d+1, |V_k| ≤ D+1.
  const auto bounds = lb_->instance.degree_bounds();
  EXPECT_EQ(bounds.delta_I_of_V, 1u);
  EXPECT_EQ(bounds.delta_K_of_V, 1u);
  EXPECT_EQ(bounds.delta_V_of_I, 3u);
  EXPECT_EQ(bounds.delta_V_of_K, 3u);
  for (ResourceId i = 0; i < lb_->instance.num_resources(); ++i) {
    EXPECT_EQ(lb_->instance.resource_support(i).size(), 3u);
    for (const Coef& entry : lb_->instance.resource_support(i)) {
      EXPECT_DOUBLE_EQ(entry.value, 1.0);
    }
  }
}

TEST_F(LowerBoundFixture, PartyCoefficientsByType) {
  // Type II parties have D+1 members with c = 1/D; type III have 2
  // members with c = 1.
  for (PartyId k = 0; k < lb_->instance.num_parties(); ++k) {
    const auto& support = lb_->instance.party_support(k);
    if (support.size() == 2u) {
      for (const Coef& entry : support) {
        EXPECT_DOUBLE_EQ(entry.value, 1.0);
      }
    } else {
      ASSERT_EQ(support.size(), 3u);  // D + 1
      for (const Coef& entry : support) {
        EXPECT_DOUBLE_EQ(entry.value, 0.5);  // 1/D
      }
    }
  }
}

TEST_F(LowerBoundFixture, TypeIIIPartyCountMatchesQEdges) {
  std::int64_t type3 = 0;
  for (PartyId k = 0; k < lb_->instance.num_parties(); ++k) {
    if (lb_->instance.party_support(k).size() == 2u) {
      ++type3;
    }
  }
  EXPECT_EQ(type3, lb_->q.num_undirected_edges());
  EXPECT_EQ(type3, 57 * 8);  // n_side · Δ
}

TEST_F(LowerBoundFixture, PairingIsFixedPointFreeInvolutionOnLeaves) {
  std::int64_t leaf_count = 0;
  for (AgentId v = 0; v < lb_->instance.num_agents(); ++v) {
    const AgentId partner = lb_->pairing[static_cast<std::size_t>(v)];
    if (lb_->level_of(v) == 2 * lb_->params.R - 1) {
      ++leaf_count;
      EXPECT_NE(partner, v);
      EXPECT_EQ(lb_->pairing[static_cast<std::size_t>(partner)], v);
      // Partners live in different trees (leaf pairs cross trees).
      EXPECT_NE(lb_->tree_of(v), lb_->tree_of(partner));
    } else {
      EXPECT_EQ(partner, v);  // identity off the leaves
    }
  }
  EXPECT_EQ(leaf_count, static_cast<std::int64_t>(lb_->num_trees) * lb_->degree);
}

TEST_F(LowerBoundFixture, DeltaSumsToZero) {
  // Eq. (3): f is an involution, so Σ_q δ(q) = 0 for any x.
  Rng rng(99);
  std::vector<double> x(static_cast<std::size_t>(lb_->instance.num_agents()));
  for (double& value : x) {
    value = rng.uniform01();
  }
  const auto delta = compute_delta(*lb_, x);
  const double total = std::accumulate(delta.begin(), delta.end(), 0.0);
  EXPECT_NEAR(total, 0.0, 1e-9);
  EXPECT_GE(delta[static_cast<std::size_t>(select_p(delta))], 0.0);
}

TEST_F(LowerBoundFixture, SelectPPicksArgmax) {
  EXPECT_EQ(select_p({-1.0, 3.0, 2.0}), 1);
  EXPECT_EQ(select_p({0.0}), 0);
}

TEST_F(LowerBoundFixture, SPrimeIsValidAndConnected) {
  const auto sub = build_s_prime(*lb_, 3);
  sub.instance.validate();
  EXPECT_GT(sub.instance.num_agents(), lb_->tree_size);
  EXPECT_TRUE(sub.instance.communication_graph(false).connected());
  EXPECT_EQ(sub.tp_local.size(), static_cast<std::size_t>(lb_->tree_size));
}

TEST_F(LowerBoundFixture, SPrimeIsTreeLike) {
  // Section 4.4: H' has no cycles. For a connected Berge-acyclic
  // hypergraph the incidence bipartite graph is a tree:
  // Σ_e |e| = (#agents + #edges) − 1.
  const auto sub = build_s_prime(*lb_, 7);
  std::int64_t incidences = 0;
  const std::int64_t num_edges =
      sub.instance.num_resources() + sub.instance.num_parties();
  for (ResourceId i = 0; i < sub.instance.num_resources(); ++i) {
    incidences += static_cast<std::int64_t>(sub.instance.resource_support(i).size());
  }
  for (PartyId k = 0; k < sub.instance.num_parties(); ++k) {
    incidences += static_cast<std::int64_t>(sub.instance.party_support(k).size());
  }
  EXPECT_EQ(incidences, sub.instance.num_agents() + num_edges - 1);
}

TEST_F(LowerBoundFixture, AlternatingSolutionFeasibleWithOmegaOne) {
  // Section 4.5: x̂ saturates every resource and yields exactly 1 for
  // every beneficiary party.
  const auto sub = build_s_prime(*lb_, 11);
  const auto x_hat = alternating_solution(sub);
  for (ResourceId i = 0; i < sub.instance.num_resources(); ++i) {
    EXPECT_NEAR(resource_load(sub.instance, x_hat, i), 1.0, 1e-12);
  }
  for (PartyId k = 0; k < sub.instance.num_parties(); ++k) {
    EXPECT_NEAR(party_benefit(sub.instance, x_hat, k), 1.0, 1e-12);
  }
  const auto eval = evaluate(sub.instance, x_hat);
  EXPECT_TRUE(eval.feasible());
  EXPECT_NEAR(eval.omega, 1.0, 1e-12);
}

TEST_F(LowerBoundFixture, RadiusRViewsOfTpAreIdenticalInSAndSPrime) {
  // Section 4.6: every hyperedge visible within distance r of a T_p agent
  // must be fully contained in V', with identical coefficients — then a
  // deterministic horizon-r algorithm cannot distinguish S from S'.
  const std::int32_t p = 23;
  const auto sub = build_s_prime(*lb_, p);
  const auto h = lb_->instance.communication_graph(false);
  for (std::int32_t local = 0; local < lb_->tree_size; ++local) {
    const AgentId v = lb_->agent_id(p, local);
    for (const AgentId w : ball(h, v, lb_->params.r)) {
      for (const Coef& entry : lb_->instance.agent_resources(w)) {
        for (const Coef& member : lb_->instance.resource_support(entry.id)) {
          EXPECT_GE(sub.local_agent(member.id), 0)
              << "resource " << entry.id << " of agent " << w
              << " leaks outside V'";
        }
      }
      for (const Coef& entry : lb_->instance.agent_parties(w)) {
        for (const Coef& member : lb_->instance.party_support(entry.id)) {
          EXPECT_GE(sub.local_agent(member.id), 0)
              << "party " << entry.id << " of agent " << w
              << " leaks outside V'";
        }
      }
    }
  }
  // And the number of fully contained resources/parties matches what S'
  // retained (no spurious extras beyond V'-contained ones).
  EXPECT_EQ(sub.resources.size(),
            static_cast<std::size_t>(sub.instance.num_resources()));
}

TEST_F(LowerBoundFixture, SafeDecisionsCoincideOnTp) {
  // The safe algorithm has horizon 1 = r, so its T_p choices in S and S'
  // must be identical.
  const std::int32_t p = select_p(compute_delta(*lb_, safe_solution(lb_->instance)));
  const auto sub = build_s_prime(*lb_, p);
  const auto x_s = safe_solution(lb_->instance);
  const auto x_sub = safe_solution(sub.instance);
  for (std::int32_t local = 0; local < lb_->tree_size; ++local) {
    const AgentId global = lb_->agent_id(p, local);
    const std::int32_t mapped = sub.local_agent(global);
    ASSERT_GE(mapped, 0);
    EXPECT_DOUBLE_EQ(x_s[static_cast<std::size_t>(global)],
                     x_sub[static_cast<std::size_t>(mapped)]);
  }
}

TEST(LowerBoundBounds, TheoremFormulas) {
  // Δ_I^V/2 + 1/2 − 1/(2Δ_K^V−2) with Δ_I^V = d+1, Δ_K^V = D+1.
  EXPECT_NEAR(theorem1_bound(2, 2), 1.75, 1e-12);
  EXPECT_NEAR(theorem1_bound(2, 3), 2.0 - 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(theorem1_bound(4, 1), 2.5, 1e-12);  // Corollary 2: Δ_I^V/2
  // The finite-R correction is negative and vanishes as R grows.
  EXPECT_LT(theorem1_bound_finite(2, 2, 2), theorem1_bound(2, 2));
  EXPECT_LT(theorem1_bound_finite(2, 2, 3), theorem1_bound(2, 2));
  EXPECT_GT(theorem1_bound_finite(2, 2, 5), theorem1_bound(2, 2) - 0.01);
}

TEST(LowerBoundCorollary2, BinaryCoefficientConstruction) {
  // D = 1: both a and c are 0/1 (type II parties have c = 1/D = 1).
  LowerBoundParams params;
  params.d = 2;
  params.D = 1;
  params.r = 1;
  params.R = 2;
  params.seed = 3;
  const auto lb = build_lower_bound_instance(params);
  EXPECT_EQ(lb.degree, 4);  // 2²·1
  for (PartyId k = 0; k < lb.instance.num_parties(); ++k) {
    for (const Coef& entry : lb.instance.party_support(k)) {
      EXPECT_DOUBLE_EQ(entry.value, 1.0);
    }
  }
  const auto bounds = lb.instance.degree_bounds();
  EXPECT_EQ(bounds.delta_V_of_K, 2u);  // Δ_K^V = D+1 = 2
  // The S' machinery works here too.
  const auto sub = build_s_prime(lb, 1);
  const auto x_hat = alternating_solution(sub);
  EXPECT_NEAR(evaluate(sub.instance, x_hat).omega, 1.0, 1e-12);
}

TEST(LowerBoundParamsValidation, RejectsBadInput) {
  LowerBoundParams params;
  params.d = 1;
  params.D = 1;  // dD = 1: no content
  EXPECT_THROW(build_lower_bound_instance(params), CheckError);
  params.D = 2;
  params.r = 2;
  params.R = 2;  // R must exceed r
  EXPECT_THROW(build_lower_bound_instance(params), CheckError);
}

}  // namespace
}  // namespace mmlp
