#include "mmlp/dist/self_stabilize.hpp"

#include <gtest/gtest.h>

#include "mmlp/core/safe.hpp"
#include "mmlp/dist/self_stabilizing_solver.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/gen/geometric.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/isp.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/gen/sensor.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(SelfStabilize, ColdStartConvergesWithinHorizonRounds) {
  // From the all-empty state every table grows to its ball: on a
  // symmetric grid and a random instance, in both hypergraph modes.
  const Instance instances[] = {
      make_grid_instance({.dims = {6, 6}, .torus = true}),
      make_random_instance({.num_agents = 40, .seed = 13})};
  for (const Instance& instance : instances) {
    for (const bool oblivious : {false, true}) {
      const Hypergraph h = instance.communication_graph(oblivious);
      for (const std::int32_t horizon : {1, 2, 3}) {
        SelfStabilizingFlood flood(h, horizon);
        flood.clear();
        // At most `horizon` growth rounds plus the no-change detection
        // round.
        const std::int32_t rounds = flood.run_until_stable(horizon + 1);
        EXPECT_LE(rounds, horizon + 1) << "horizon " << horizon;
        ASSERT_TRUE(flood.is_legitimate())
            << "horizon " << horizon << " oblivious " << oblivious;
        for (AgentId v = 0; v < instance.num_agents(); ++v) {
          EXPECT_EQ(flood.knowledge(v), ball(h, v, horizon))
              << "agent " << v << " horizon " << horizon << " oblivious "
              << oblivious;
        }
      }
    }
  }
}

TEST(SelfStabilize, LegitimateStateIsAFixedPoint) {
  const Hypergraph h = testing::path_instance(7).communication_graph();
  SelfStabilizingFlood flood(h, 2);
  flood.reset_legitimate();
  EXPECT_EQ(flood.step(), 0);
  EXPECT_TRUE(flood.is_legitimate());
}

class SelfStabilizeCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelfStabilizeCorruption, RecoversFromArbitraryCorruption) {
  // The Section 1.1 claim: stabilisation in a constant number of rounds
  // (horizon + 1), from ANY initial state.
  const Hypergraph h =
      make_grid_instance({.dims = {5, 5}, .torus = true}).communication_graph();
  const std::int32_t horizon = 2;
  SelfStabilizingFlood flood(h, horizon);
  Rng rng(GetParam());
  flood.corrupt(rng, 12);
  for (std::int32_t round = 0; round < horizon + 1; ++round) {
    flood.step();
  }
  EXPECT_TRUE(flood.is_legitimate()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelfStabilizeCorruption,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(SelfStabilize, StabilisationTimeIndependentOfSize) {
  // Constant-time stabilisation: rounds-to-stable must not grow with n.
  const std::int32_t horizon = 2;
  for (const std::int32_t side : {4, 8, 16}) {
    const Hypergraph h = make_grid_instance({.dims = {side, side}, .torus = true})
                             .communication_graph();
    SelfStabilizingFlood flood(h, horizon);
    Rng rng(7);
    flood.corrupt(rng, 8);
    std::int32_t rounds = 0;
    while (!flood.is_legitimate() && rounds < 10) {
      flood.step();
      ++rounds;
    }
    EXPECT_LE(rounds, horizon + 1) << "side " << side;
  }
}

TEST(SelfStabilize, SafeOutputMatchesDirectAlgorithm) {
  const auto instance = make_random_instance({.num_agents = 30, .seed = 5});
  engine::Session session(instance);
  SelfStabilizingSolver solver(session, SelfStabilizingSolver::Algorithm::kSafe);
  SelfStabilizingFlood& flood = solver.knowledge();
  Rng rng(3);
  flood.corrupt(rng, 6);
  flood.run_until_stable(4);
  EXPECT_EQ(solver.output(), safe_solution(instance));
}

TEST(SelfStabilize, GhostEntriesAgeOut) {
  // A corrupted far-away origin must vanish, not circulate.
  const Hypergraph h = testing::path_instance(10).communication_graph();
  const std::int32_t horizon = 2;
  SelfStabilizingFlood flood(h, horizon);
  flood.reset_legitimate();
  // Inject one ghost by corrupting and restabilising; afterwards agent 0
  // must not know agent 9 (distance 9 > horizon).
  Rng rng(11);
  flood.corrupt(rng, 20);
  for (std::int32_t round = 0; round < horizon + 1; ++round) {
    flood.step();
  }
  const auto known = flood.knowledge(0);
  EXPECT_FALSE(std::binary_search(known.begin(), known.end(), AgentId{9}));
  EXPECT_TRUE(std::binary_search(known.begin(), known.end(), AgentId{2}));
}

TEST(SelfStabilize, SafeOutputFromClearedStateThrowsCatchably) {
  // Before any round runs, agents know nothing — not even themselves —
  // so the safe rule must fail loudly (and catchably, despite running
  // on the pool inside run_local) rather than fabricate an output.
  const auto instance = testing::path_instance(5);
  engine::Session session(instance);
  SelfStabilizingSolver solver(session, SelfStabilizingSolver::Algorithm::kSafe);
  SelfStabilizingFlood& flood = solver.knowledge();
  flood.clear();
  EXPECT_THROW(solver.output(), CheckError);
  flood.run_until_stable(2);
  EXPECT_EQ(solver.output(), safe_solution(instance));
}

// Maximal corruption: corrupt_all replaces EVERY table with a fully
// random one — nothing of the legitimate state survives — and the
// horizon + 1 bound must still hold on every generator family the repo
// ships, not just the symmetric constructions.
const std::vector<Instance>& generator_scenarios() {
  static const std::vector<Instance>* instances = [] {
    auto* list = new std::vector<Instance>();
    list->push_back(make_grid_instance(
        {.dims = {5, 5}, .torus = true, .randomize = true, .seed = 2}));
    list->push_back(make_random_instance({.num_agents = 30, .seed = 1}));
    list->push_back(
        make_geometric_instance({.num_agents = 40, .seed = 3}).instance);
    list->push_back(make_sensor_network({.num_sensors = 25,
                                         .num_relays = 8,
                                         .num_areas = 4,
                                         .radio_range = 0.4,
                                         .seed = 4})
                        .instance);
    list->push_back(make_isp_network({.num_customers = 5, .seed = 5}).instance);
    return list;
  }();
  return *instances;
}

class SelfStabilizeMaximalCorruption
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SelfStabilizeMaximalCorruption, RecoversOnEveryGeneratorFamily) {
  const Instance& instance = generator_scenarios()[GetParam()];
  const Hypergraph h = instance.communication_graph();
  for (const std::int32_t horizon : {1, 3}) {
    SelfStabilizingFlood flood(h, horizon);
    Rng rng(29 + GetParam());
    flood.corrupt_all(rng);
    EXPECT_FALSE(flood.is_legitimate()) << "horizon " << horizon;
    for (std::int32_t round = 0; round < horizon + 1; ++round) {
      flood.step();
    }
    EXPECT_TRUE(flood.is_legitimate())
        << "scenario " << GetParam() << " horizon " << horizon;
  }
  // The recovered radius-1 tables reproduce the safe solution bitwise.
  engine::Session session(instance);
  SelfStabilizingSolver solver(session, SelfStabilizingSolver::Algorithm::kSafe);
  SelfStabilizingFlood& flood = solver.knowledge();
  Rng rng(77 + GetParam());
  flood.corrupt_all(rng);
  flood.run_until_stable(2);
  EXPECT_EQ(solver.output(), safe_solution(instance));
}

std::string generator_scenario_name(
    const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* const names[] = {"grid", "random", "geometric", "sensor",
                                      "isp"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(Generators, SelfStabilizeMaximalCorruption,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}, std::size_t{3},
                                           std::size_t{4}),
                         generator_scenario_name);

TEST(SelfStabilize, HorizonZeroKnowsOnlySelf) {
  const Hypergraph h = testing::path_instance(4).communication_graph();
  SelfStabilizingFlood flood(h, 0);
  Rng rng(1);
  flood.corrupt(rng, 5);
  flood.step();
  for (AgentId v = 0; v < 4; ++v) {
    EXPECT_EQ(flood.knowledge(v), (std::vector<AgentId>{v}));
  }
}

}  // namespace
}  // namespace mmlp
