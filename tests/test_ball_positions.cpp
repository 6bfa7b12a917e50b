// The ball-position cache of the eq. (10) gather (BallPositions): the
// build must match its definition, found by brute force; the gather
// through it must give local_averaging the bits of a gather that
// searches every ball; and the session must serve it warm.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/lowerbound.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"

namespace mmlp {
namespace {

std::vector<std::pair<std::string, Instance>> test_instances() {
  std::vector<std::pair<std::string, Instance>> instances;
  instances.emplace_back("random", make_random_instance({
                                       .num_agents = 80,
                                       .resources_per_agent = 3,
                                       .parties_per_agent = 2,
                                       .max_support = 4,
                                       .seed = 13,
                                   }));
  instances.emplace_back(
      "torus", make_grid_instance(
                   {.dims = {7, 7}, .torus = true, .randomize = true, .seed = 4}));
  LowerBoundParams params;
  params.d = 2;
  params.D = 1;
  params.r = 1;
  params.R = 2;
  params.seed = 5;
  instances.emplace_back("lowerbound",
                         build_lower_bound_instance(params).instance);
  return instances;
}

TEST(BallPositions, BuildMatchesTheDefinitionByBruteForce) {
  for (const auto& [name, instance] : test_instances()) {
    for (const std::int32_t R : {1, 2}) {
      for (const bool oblivious : {false, true}) {
        const std::string context = name + " R=" + std::to_string(R) +
                                    " oblivious=" + std::to_string(oblivious);
        const std::vector<std::vector<AgentId>> balls =
            all_balls(instance.communication_graph(oblivious), R);
        const BallPositions positions = all_ball_positions(balls);
        ASSERT_EQ(positions.offset.size(), balls.size() + 1) << context;
        EXPECT_EQ(positions.offset.front(), 0u) << context;
        EXPECT_EQ(positions.index.size(), positions.offset.back()) << context;
        for (std::size_t j = 0; j < balls.size(); ++j) {
          ASSERT_EQ(positions.size(j), balls[j].size()) << context;
          for (std::size_t t = 0; t < balls[j].size(); ++t) {
            // Linear scan: the one p with balls[u][p] == j.
            const auto& ball_u = balls[static_cast<std::size_t>(balls[j][t])];
            std::size_t expected = ball_u.size();
            for (std::size_t p = 0; p < ball_u.size(); ++p) {
              if (ball_u[p] == static_cast<AgentId>(j)) {
                expected = p;
              }
            }
            ASSERT_LT(expected, ball_u.size()) << context;
            EXPECT_EQ(positions.row(j)[t], expected)
                << context << " j=" << j << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(BallPositions, AsymmetricBallsFailTheBuildCheck) {
  // Node 1's ball lists node 0, but node 0's ball does not list node 1.
  const std::vector<std::vector<AgentId>> balls = {{0}, {0, 1}};
  EXPECT_THROW((void)all_ball_positions(balls), CheckError);
}

TEST(BallPositions, BallTooLargeForSixteenBitsFailsTheBuildCheck) {
  // A star: node 0's ball holds all 65536 nodes, one more than the
  // 16-bit limit on a ball.
  constexpr std::size_t kNodes = 65536;
  std::vector<std::vector<AgentId>> balls(kNodes);
  for (std::size_t v = 0; v < kNodes; ++v) {
    balls[0].push_back(static_cast<AgentId>(v));
    if (v > 0) {
      balls[v] = {0, static_cast<AgentId>(v)};
    }
  }
  try {
    (void)all_ball_positions(balls);
    ADD_FAILURE() << "a 65536-node ball was accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("16-bit"), std::string::npos)
        << error.what();
  }
  // One node fewer fits: the last node sits at index 65534 of node 0's
  // ball.
  balls[0].pop_back();
  balls.pop_back();
  const BallPositions positions = all_ball_positions(balls);
  EXPECT_EQ(positions.row(kNodes - 2)[0], kNodes - 2);
  EXPECT_EQ(positions.row(kNodes - 2)[1], 1u);
}

TEST(BallPositions, RepairOfAnUnchangedLayoutRewritesOnlyTheDirtyRows) {
  const Instance instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const std::vector<std::vector<AgentId>> balls =
      all_balls(instance.communication_graph(false), 1);
  const BallPositions fresh = all_ball_positions(balls);
  BallPositions repaired = fresh;
  repaired.index[repaired.offset[3]] ^= 1;  // a dirty row
  repaired.index[repaired.offset[7]] ^= 1;  // a clean row: kept as it is
  const std::vector<AgentId> dirty = {3};
  repair_ball_positions(balls, dirty, repaired);
  EXPECT_EQ(repaired.offset, fresh.offset);
  EXPECT_EQ(repaired.row(3)[0], fresh.row(3)[0]);
  EXPECT_NE(repaired.row(7)[0], fresh.row(7)[0]);
}

/// x̃ by the definition, from scratch: every view LP solved on its own
/// scratch, and x^u_j found by a binary search of j in V^u.
std::vector<double> gather_by_search(const Instance& instance,
                                     const LocalAveragingOptions& options) {
  const std::vector<std::vector<AgentId>> balls = all_balls(
      instance.communication_graph(options.collaboration_oblivious), options.R);
  const GrowthSets sets = compute_growth_sets(instance, balls);
  std::vector<std::vector<double>> view_x(balls.size());
  for (std::size_t u = 0; u < balls.size(); ++u) {
    ViewScratch scratch;
    LocalView view;
    extract_view_into(instance, static_cast<AgentId>(u), options.R, balls[u],
                      view, scratch);
    view_x[u] = solve_view_lp(view, options.lp, scratch).x;
  }
  std::vector<double> x(balls.size());
  for (std::size_t j = 0; j < balls.size(); ++j) {
    double sum = 0.0;
    for (const AgentId u : balls[j]) {
      const auto& ball_u = balls[static_cast<std::size_t>(u)];
      const auto it = std::lower_bound(ball_u.begin(), ball_u.end(),
                                       static_cast<AgentId>(j));
      EXPECT_TRUE(it != ball_u.end() && *it == static_cast<AgentId>(j));
      sum += view_x[static_cast<std::size_t>(u)][static_cast<std::size_t>(
          it - ball_u.begin())];
    }
    x[j] = sets.beta[j] * (sum / static_cast<double>(sets.ball_size[j]));
  }
  return x;
}

TEST(BallPositions, GatherEqualsTheBinarySearchOracleBitwise) {
  for (const auto& [name, instance] : test_instances()) {
    for (const std::int32_t R : {1, 2}) {
      for (const bool oblivious : {false, true}) {
        for (const bool dedup : {false, true}) {
          LocalAveragingOptions options;
          options.R = R;
          options.collaboration_oblivious = oblivious;
          options.deduplicate = dedup;
          EXPECT_EQ(local_averaging(instance, options).x,
                    gather_by_search(instance, options))
              << name << " R=" << R << " oblivious=" << oblivious
              << " dedup=" << dedup;
        }
      }
    }
  }
}

TEST(BallPositions, SessionBuildsOnceThenServesWarm) {
  const Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  (void)session.balls(1, false);
  const engine::SessionStats before = session.stats();
  const BallPositions& first = session.ball_positions(1, false);
  const engine::SessionStats built = session.stats();
  EXPECT_EQ(built.cache_misses, before.cache_misses + 1);
  const BallPositions& second = session.ball_positions(1, false);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(session.stats().cache_misses, built.cache_misses);
  EXPECT_EQ(first.index, all_ball_positions(session.balls(1, false)).index);
}

}  // namespace
}  // namespace mmlp
