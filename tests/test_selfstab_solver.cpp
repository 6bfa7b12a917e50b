// The differential recovery bar for the self-stabilizing solvers
// (Section 1.1 realized on the paper's actual algorithms): from ANY
// corrupted state — a replayable FaultPlan applied over a faulty
// prefix, or every table fully randomized — after at most horizon + 1
// fault-free rounds the output is BITWISE equal to the fault-free
// distributed execution. Property-tested across generator scenarios ×
// {safe, averaging R=1, averaging R=2} × seeded fault plans.
#include "mmlp/dist/self_stabilizing_solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/parallel.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

// The Section 4 shape without the template-graph pairing: agents are
// the nodes of a complete (d, D)-ary hypertree, type I hyperedges
// become unit resources, type II hyperedges become parties.
Instance make_hypertree_instance(std::int32_t d, std::int32_t D,
                                 std::int32_t height) {
  const Hypertree tree = Hypertree::complete(d, D, height);
  Instance::Builder builder;
  for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
    builder.add_agent();
  }
  for (const HypertreeEdge& edge : tree.edges()) {
    if (edge.type == HyperedgeType::kTypeI) {
      const ResourceId i = builder.add_resource();
      builder.set_usage(i, edge.parent, 1.0);
      for (const std::int32_t child : edge.children) {
        builder.set_usage(i, child, 1.0);
      }
    } else {
      const PartyId k = builder.add_party();
      builder.set_benefit(k, edge.parent, 1.0 / static_cast<double>(D));
      for (const std::int32_t child : edge.children) {
        builder.set_benefit(k, child, 1.0 / static_cast<double>(D));
      }
    }
  }
  return std::move(builder).build();
}

struct Scenario {
  const char* name;
  Instance instance;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario>* cases = [] {
    auto* list = new std::vector<Scenario>();
    list->push_back({"grid_torus", make_grid_instance({.dims = {5, 5},
                                                       .torus = true,
                                                       .randomize = true,
                                                       .seed = 3})});
    list->push_back(
        {"random", make_random_instance({.num_agents = 36, .seed = 9})});
    list->push_back({"hypertree", make_hypertree_instance(2, 2, 3)});
    return list;
  }();
  return *cases;
}

struct Config {
  SelfStabilizingSolver::Algorithm algorithm;
  std::int32_t R;  // read by kAveraging only
};

std::vector<double> fault_free_output(const Instance& instance,
                                      const Config& config,
                                      const LocalAveragingOptions& options) {
  if (config.algorithm == SelfStabilizingSolver::Algorithm::kSafe) {
    return distributed_safe(instance);
  }
  return distributed_local_averaging(instance, options);
}

// (scenario index, algorithm+R index, fault seed)
using RecoveryParam = std::tuple<std::size_t, std::size_t, std::uint64_t>;

const std::vector<Config>& configs() {
  static const std::vector<Config> list = {
      {SelfStabilizingSolver::Algorithm::kSafe, 1},
      {SelfStabilizingSolver::Algorithm::kAveraging, 1},
      {SelfStabilizingSolver::Algorithm::kAveraging, 2},
  };
  return list;
}

class SelfStabSolverRecovery
    : public ::testing::TestWithParam<RecoveryParam> {};

TEST_P(SelfStabSolverRecovery, FaultPlanThenCleanRoundsMatchesFaultFree) {
  const auto& [scenario_index, config_index, fault_seed] = GetParam();
  const Scenario& scenario = scenarios()[scenario_index];
  const Config& config = configs()[config_index];
  LocalAveragingOptions options;
  options.R = config.R;

  SelfStabilizingSolver solver(scenario.instance, config.algorithm, options);
  EXPECT_TRUE(solver.is_legitimate());

  // A faulty prefix: a seeded random schedule of 18 events over 3
  // rounds, drawn from the full taxonomy.
  FaultInjector faults(FaultPlan::random(
      fault_seed, 3, scenario.instance.num_agents(), 18));
  const std::int32_t faulty_rounds = solver.run_plan(faults);
  EXPECT_EQ(faulty_rounds, faults.plan().rounds());

  // The stabilization contract: at most horizon + 1 fault-free rounds
  // from ANY state, then the legitimate fixed point.
  const std::int32_t rounds = solver.stabilize(solver.horizon() + 1);
  EXPECT_LE(rounds, solver.horizon() + 1);
  ASSERT_TRUE(solver.is_legitimate())
      << scenario.name << " seed " << fault_seed;

  // The differential bar: bitwise equality with the fault-free run.
  EXPECT_EQ(solver.output(),
            fault_free_output(scenario.instance, config, options))
      << scenario.name << " seed " << fault_seed;
}

TEST_P(SelfStabSolverRecovery, MaximalCorruptionThenCleanRoundsMatches) {
  const auto& [scenario_index, config_index, fault_seed] = GetParam();
  const Scenario& scenario = scenarios()[scenario_index];
  const Config& config = configs()[config_index];
  LocalAveragingOptions options;
  options.R = config.R;

  SelfStabilizingSolver solver(scenario.instance, config.algorithm, options);
  // The strongest transient state: EVERY table replaced by a fully
  // random one — nothing of the legitimate state survives.
  Rng rng(fault_seed);
  solver.knowledge().corrupt_all(rng);
  EXPECT_FALSE(solver.is_legitimate());

  for (std::int32_t round = 0; round < solver.horizon() + 1; ++round) {
    solver.knowledge().step();
  }
  ASSERT_TRUE(solver.is_legitimate())
      << scenario.name << " seed " << fault_seed;
  EXPECT_EQ(solver.output(),
            fault_free_output(scenario.instance, config, options))
      << scenario.name << " seed " << fault_seed;
}

std::string recovery_param_name(
    const ::testing::TestParamInfo<RecoveryParam>& info) {
  const auto& [scenario_index, config_index, fault_seed] = info.param;
  static const char* const config_names[] = {"safe", "averagingR1",
                                             "averagingR2"};
  return std::string(scenarios()[scenario_index].name) + "_" +
         config_names[config_index] + "_s" + std::to_string(fault_seed);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SelfStabSolverRecovery,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}),
                       ::testing::Values(std::uint64_t{11},
                                         std::uint64_t{23})),
    recovery_param_name);

TEST(SelfStabSolver, HorizonMatchesTheAlgorithm) {
  const auto instance = testing::path_instance(6);
  LocalAveragingOptions options;
  options.R = 2;
  SelfStabilizingSolver safe(instance,
                             SelfStabilizingSolver::Algorithm::kSafe);
  EXPECT_EQ(safe.horizon(), 1);
  SelfStabilizingSolver averaging(
      instance, SelfStabilizingSolver::Algorithm::kAveraging, options);
  EXPECT_EQ(averaging.horizon(), 2 * options.R + 1);
}

TEST(SelfStabSolver, LegitimateOutputNeedsNoRounds) {
  // Constructed in the legitimate state, the output is immediately the
  // fault-free execution — zero rounds, nothing carried over.
  const auto instance = make_grid_instance({.dims = {4, 4}, .torus = true});
  SelfStabilizingSolver solver(instance,
                               SelfStabilizingSolver::Algorithm::kSafe);
  EXPECT_EQ(solver.output(), distributed_safe(instance));
  EXPECT_EQ(solver.stabilize(3), 1);  // only the no-change detection round
}

TEST(SelfStabSolver, EmptyPlanLeavesTheLegitimateState) {
  const auto instance = testing::path_instance(5);
  SelfStabilizingSolver solver(instance,
                               SelfStabilizingSolver::Algorithm::kSafe);
  FaultInjector faults{FaultPlan{}};
  EXPECT_EQ(solver.run_plan(faults), 0);
  EXPECT_TRUE(solver.is_legitimate());
  EXPECT_EQ(faults.faults_injected(), 0);
}

TEST(SelfStabSolver, FaultyExecutionReplaysBitwise) {
  // The same plan against the same instance yields the same transient
  // tables and the same output trajectory — fault schedules are test
  // vectors, not noise.
  const auto instance = make_random_instance({.num_agents = 30, .seed = 5});
  const FaultPlan plan = FaultPlan::random(7, 2, instance.num_agents(), 12);
  std::vector<std::vector<AgentId>> first_knowledge;
  std::vector<std::vector<AgentId>> second_knowledge;
  for (auto* sink : {&first_knowledge, &second_knowledge}) {
    SelfStabilizingSolver solver(instance,
                                 SelfStabilizingSolver::Algorithm::kSafe);
    FaultInjector faults(plan);
    solver.run_plan(faults);
    for (AgentId v = 0; v < instance.num_agents(); ++v) {
      sink->push_back(solver.knowledge().knowledge(v));
    }
  }
  EXPECT_EQ(first_knowledge, second_knowledge);
}

TEST(SelfStabSolver, SessionPoolRunsEveryRoundAndTheOutput) {
  // A selfstab-averaging request on a session with a dedicated 2-worker
  // pool runs its rounds, its recovery and its per-agent output there:
  // no worker of the process-global pool executes a chunk.
  const auto instance = make_grid_instance(
      {.dims = {12, 12}, .torus = true, .randomize = true, .seed = 3});
  engine::Session session(instance, engine::SessionOptions{.threads = 2});
  const FaultPlan plan = FaultPlan::random(5, 3, instance.num_agents(), 40);
  const auto global_work = [] {
    std::vector<std::uint64_t> work;
    for (const ThreadPool::WorkerStats& worker :
         ThreadPool::global().worker_stats()) {
      work.push_back(worker.chunks);
    }
    return work;
  };
  const auto before = global_work();
  const engine::SolveResult result = engine::solve(
      session, {.algorithm = "selfstab-averaging",
                .R = 1,
                .fault_plan = plan.serialize()});
  EXPECT_EQ(global_work(), before);
  EXPECT_EQ(result.x, distributed_local_averaging(instance, {.R = 1}));
}

}  // namespace
}  // namespace mmlp
