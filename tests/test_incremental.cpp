// The update pipeline, end to end: Session::apply must leave every
// cached structure element-for-element equal to a from-scratch
// recompute on the mutated instance (repair == recompute), stale
// entries must never be served (revision-mismatch assert), and the
// incremental solve paths must splice to *bitwise* the same solution a
// cold session computes — for safe and averaging (dedup on and off,
// every damping rule), on grid/random/hypertree at R ∈ {1, 2},
// across value edits, membership edits, entity additions and (via the
// full-invalidation fallback) agent removals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/core/view_class.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

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

std::vector<std::pair<std::string, Instance>> test_instances() {
  std::vector<std::pair<std::string, Instance>> instances;
  instances.emplace_back(
      "grid", make_grid_instance(
                  {.dims = {6, 6}, .torus = true, .randomize = true, .seed = 3}));
  instances.emplace_back("random", make_random_instance({
                                       .num_agents = 60,
                                       .resources_per_agent = 3,
                                       .parties_per_agent = 2,
                                       .max_support = 4,
                                       .seed = 9,
                                   }));
  instances.emplace_back("hypertree", make_hypertree_instance(2, 2, 3));
  return instances;
}

/// The delta sequence each test walks: a value edit, a membership edit
/// (insert), an erase of that entry again, and an entity addition. Each
/// step is one apply.
std::vector<InstanceDelta> delta_sequence(const Instance& instance) {
  std::vector<InstanceDelta> deltas;
  const Coef first = instance.resource_support(0)[0];
  deltas.emplace_back().set_usage(0, first.id, first.value * 1.25);
  // An absent (i, v): the last agent is never in resource 0's support on
  // these generators... unless it is — search for an absent pair.
  ResourceId absent_i = -1;
  AgentId absent_v = -1;
  for (ResourceId i = 0; i < instance.num_resources() && absent_i < 0; ++i) {
    for (AgentId v = instance.num_agents() - 1; v >= 0; --v) {
      if (instance.usage(i, v) == 0.0) {
        absent_i = i;
        absent_v = v;
        break;
      }
    }
  }
  MMLP_CHECK_GE(absent_i, 0);
  deltas.emplace_back().set_usage(absent_i, absent_v, 0.7);
  deltas.emplace_back().erase_usage(absent_i, absent_v);
  // A new agent wired into existing structure plus a fresh resource.
  InstanceDelta grow;
  grow.add_agents(1).add_resources(1);
  const AgentId new_agent = instance.num_agents();
  grow.set_usage(instance.num_resources(), new_agent, 1.0);
  grow.set_usage(0, new_agent, 0.4);
  grow.set_benefit(0, new_agent, 0.2);
  deltas.push_back(grow);
  return deltas;
}

// ---------------------------------------------------------------------
// Session cache repair == from-scratch recompute.

TEST(SessionApply, RepairedCachesMatchFromScratchRecompute) {
  for (auto& [name, original] : test_instances()) {
    Instance working = original;
    engine::Session session(working);
    // Prime every cache at both radii (full mode; growth sets require
    // party hyperedges) plus oblivious balls, and the ball positions of
    // both modes.
    for (const std::int32_t r : {1, 2}) {
      (void)session.ball_positions(r, false);
      (void)session.ball_positions(r, true);
      (void)session.growth_sets(r, false);
      (void)session.view_classes(r, false);
    }
    for (const InstanceDelta& delta : delta_sequence(original)) {
      const engine::Session::ApplyReport report = session.apply(delta);
      EXPECT_EQ(report.revision, working.revision()) << name;
      EXPECT_EQ(session.revision(), working.revision()) << name;
      for (const std::int32_t r : {1, 2}) {
        for (const bool oblivious : {false, true}) {
          const Hypergraph fresh_graph =
              working.communication_graph(oblivious);
          EXPECT_EQ(session.balls(r, oblivious), all_balls(fresh_graph, r))
              << name << " r=" << r << " oblivious=" << oblivious;
          // Structural steps repair the position rows within R of the
          // balls' dirty region, added agents included; the result must
          // equal a rebuild field for field.
          const BallPositions rebuilt =
              all_ball_positions(all_balls(fresh_graph, r));
          const BallPositions& positions = session.ball_positions(r, oblivious);
          EXPECT_EQ(positions.offset, rebuilt.offset)
              << name << " r=" << r << " oblivious=" << oblivious;
          EXPECT_EQ(positions.index, rebuilt.index)
              << name << " r=" << r << " oblivious=" << oblivious;
        }
        const std::vector<std::vector<AgentId>>& balls =
            session.balls(r, false);
        const GrowthSets fresh = compute_growth_sets(working, balls);
        const GrowthSets& repaired = session.growth_sets(r, false);
        EXPECT_EQ(repaired.ball_size, fresh.ball_size) << name << " r=" << r;
        EXPECT_EQ(repaired.m_k, fresh.m_k) << name << " r=" << r;
        EXPECT_EQ(repaired.M_k, fresh.M_k) << name << " r=" << r;
        EXPECT_EQ(repaired.N_i, fresh.N_i) << name << " r=" << r;
        EXPECT_EQ(repaired.n_i, fresh.n_i) << name << " r=" << r;
        EXPECT_EQ(repaired.beta, fresh.beta) << name << " r=" << r;
        // The stored maxima were re-derived by the repair, not left at
        // the pre-delta values.
        const testing::GrowthMaxima maxima = testing::growth_maxima(repaired);
        EXPECT_EQ(repaired.ratio_bound, maxima.ratio_bound) << name << " r=" << r;
        EXPECT_EQ(repaired.peak_ball, maxima.peak_ball) << name << " r=" << r;
        EXPECT_EQ(repaired.ratio_bound, fresh.ratio_bound) << name << " r=" << r;
        EXPECT_EQ(repaired.peak_ball, fresh.peak_ball) << name << " r=" << r;

        // The sequence walks value edits and structural edits alike;
        // the repaired orbit index must equal a rebuild field for field
        // after each one, down to the serialized key of every orbit.
        const ViewClassIndex rebuilt =
            build_view_class_index(working, balls, r, false);
        const ViewClassIndex& index = session.view_classes(r, false);
        EXPECT_EQ(index.orbit_of, rebuilt.orbit_of) << name << " r=" << r;
        EXPECT_EQ(index.orbit_rep, rebuilt.orbit_rep) << name << " r=" << r;
        EXPECT_EQ(index.orbit_size, rebuilt.orbit_size) << name << " r=" << r;
        EXPECT_EQ(index.orbit_key, rebuilt.orbit_key) << name << " r=" << r;
      }
    }
  }
}

TEST(SessionApply, RemovalDropsCachesAndStillServesFreshOnes) {
  Instance working = make_grid_instance({.dims = {5, 5}, .torus = true});
  engine::Session session(working);
  (void)session.balls(1, false);
  (void)session.growth_sets(1, false);
  const std::uint64_t before = session.revision();

  InstanceDelta removal;
  removal.remove_agent(7);
  const engine::Session::ApplyReport report = session.apply(removal);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(session.dirty_since(before, 1, false), std::nullopt);

  // Rebuilt-on-demand caches describe the compacted instance.
  const Hypergraph fresh = working.communication_graph(false);
  EXPECT_EQ(session.balls(1, false), all_balls(fresh, 1));
}

TEST(SessionApply, MutatingBehindTheSessionsBackTripsTheStaleAssert) {
  Instance working = make_grid_instance({.dims = {4, 4}});
  engine::Session session(working);
  (void)session.balls(1, false);
  InstanceDelta delta;
  const Coef first = working.resource_support(0)[0];
  delta.set_usage(0, first.id, first.value * 2.0);
  (void)working.apply(delta);  // NOT via session.apply
  EXPECT_THROW(session.balls(1, false), CheckError);
}

TEST(SessionApply, ConstBoundSessionRejectsApply) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  InstanceDelta delta;
  const Coef first = instance.resource_support(0)[0];
  delta.set_usage(0, first.id, first.value * 2.0);
  EXPECT_THROW(session.apply(delta), CheckError);
}

// ---------------------------------------------------------------------
// Incremental solve == cold full solve, bitwise.

TEST(IncrementalSolve, MatchesColdSolveBitwiseAcrossDeltas) {
  for (auto& [name, original] : test_instances()) {
    for (const std::int32_t R : {1, 2}) {
      for (const bool dedup : {false, true}) {
        Instance working = original;
        engine::Session session(working);
        LocalAveragingOptions options;
        options.R = R;
        options.deduplicate = dedup;

        // Prime the memos (full solves).
        (void)safe_solution_incremental(session);
        (void)local_averaging_incremental(session, options);

        int step = 0;
        for (const InstanceDelta& delta : delta_sequence(original)) {
          (void)session.apply(delta);
          ++step;
          const std::string context = name + " R=" + std::to_string(R) +
                                      " dedup=" + std::to_string(dedup) +
                                      " step=" + std::to_string(step);

          engine::Session cold(static_cast<const Instance&>(working));

          IncrementalStats safe_stats;
          const std::vector<double> safe_inc =
              safe_solution_incremental(session, &safe_stats);
          EXPECT_TRUE(safe_stats.incremental) << context;
          EXPECT_EQ(safe_inc, safe_solution_with(cold)) << context;

          IncrementalStats avg_stats;
          const LocalAveragingResult avg_inc =
              local_averaging_incremental(session, options, &avg_stats);
          EXPECT_TRUE(avg_stats.incremental) << context;
          const LocalAveragingResult avg_cold =
              local_averaging_with(cold, options);
          EXPECT_EQ(avg_inc.x, avg_cold.x) << context;
          EXPECT_EQ(avg_inc.view_omega, avg_cold.view_omega) << context;
          EXPECT_EQ(avg_inc.beta, avg_cold.beta) << context;
          EXPECT_EQ(avg_inc.ball_size, avg_cold.ball_size) << context;
          EXPECT_EQ(avg_inc.ratio_bound, avg_cold.ratio_bound) << context;
          EXPECT_EQ(avg_inc.peak_ball, avg_cold.peak_ball) << context;
          // The incremental run solves only the dirty region — strictly
          // less than the instance for a radius-1 single-value edit; at
          // R=2 the dirty ball can legitimately cover these small test
          // instances entirely.
          if (R == 1 && step == 1) {
            EXPECT_LT(avg_stats.dirty_agents,
                      static_cast<std::size_t>(working.num_agents()))
                << context;
          } else {
            EXPECT_LE(avg_stats.dirty_agents,
                      static_cast<std::size_t>(working.num_agents()))
                << context;
          }
        }
      }
    }
  }
}

TEST(IncrementalSolve, RequestReportsTheColdGrowthMaxima) {
  // An incremental averaging request reads ratio_bound and peak_ball
  // from the session's repaired growth sets; a cold solve derives them
  // afresh. On a 10x10 torus every ball has the same size until the
  // inserted usage grows the balls around (5, 5), which raises the peak;
  // the value edits and the erase around it move nothing or lower it.
  const Instance original = make_grid_instance({.dims = {10, 10}});
  const AgentId mid = 55;
  ASSERT_EQ(original.usage(0, mid), 0.0);
  const Coef edited = original.resource_support(3)[0];
  std::vector<InstanceDelta> steps(4);
  steps[0].set_usage(3, edited.id, edited.value * 1.5);
  steps[1].set_usage(0, mid, 0.5);
  steps[2].set_usage(3, edited.id, edited.value * 0.75);
  steps[3].erase_usage(0, mid);
  Instance working = original;
  engine::Session session(working);
  engine::SolveRequest request{.algorithm = "averaging", .R = 1};
  request.incremental = true;
  const engine::SolveResult first = engine::solve(session, request);
  const double flat_peak = first.diagnostics.at("peak_ball");
  for (std::size_t step = 0; step < steps.size(); ++step) {
    const engine::Session::ApplyReport report = session.apply(steps[step]);
    EXPECT_EQ(report.structural, step % 2 == 1) << "step " << step;
    const engine::SolveResult inc = engine::solve(session, request);
    engine::Session cold(static_cast<const Instance&>(working));
    const engine::SolveResult full =
        engine::solve(cold, {.algorithm = "averaging", .R = 1});
    EXPECT_EQ(inc.diagnostics.at("incremental"), 1.0) << "step " << step;
    for (const char* key : {"ratio_bound", "peak_ball"}) {
      EXPECT_EQ(inc.diagnostics.at(key), full.diagnostics.at(key))
          << key << " step " << step;
    }
    if (step == 1) {
      EXPECT_GT(inc.diagnostics.at("peak_ball"), flat_peak);
    }
  }
}

TEST(IncrementalSolve, FlatViewLayoutFollowsBallSizeChanges) {
  // The memo keeps every view solution in one array laid out like the
  // balls. Walk it through a re-layout (one ball mid-array grows), a
  // layout reuse (value edit), a growth of n (add_agents) and another
  // reuse, matching a cold solve bitwise after every step.
  const Instance original = make_grid_instance({.dims = {10, 10}});
  const AgentId mid = 55;  // cell (5, 5), far from resource 0 at (0, 0)
  ASSERT_EQ(original.usage(0, mid), 0.0);
  const Coef edited = original.resource_support(3)[0];
  std::vector<InstanceDelta> steps(4);
  steps[0].set_usage(0, mid, 0.5);
  steps[1].set_usage(3, edited.id, edited.value * 1.5);
  steps[2].add_agents(1).set_usage(7, original.num_agents(), 0.8);
  steps[2].set_benefit(7, original.num_agents(), 0.3);
  steps[3].set_usage(3, edited.id, edited.value * 0.75);
  for (const bool dedup : {false, true}) {
    Instance working = original;
    engine::Session session(working);
    const LocalAveragingOptions options{.R = 1, .deduplicate = dedup};
    (void)local_averaging_incremental(session, options);  // the full plan
    const std::size_t mid_ball = session.balls(1, false)[mid].size();
    for (std::size_t step = 0; step < steps.size(); ++step) {
      (void)session.apply(steps[step]);
      const std::string context =
          "dedup=" + std::to_string(dedup) + " step=" + std::to_string(step);
      if (step == 0) {
        ASSERT_GT(session.balls(1, false)[mid].size(), mid_ball) << context;
      }
      IncrementalStats stats;
      const LocalAveragingResult inc =
          local_averaging_incremental(session, options, &stats);
      EXPECT_TRUE(stats.incremental) << context;
      engine::Session cold(static_cast<const Instance&>(working));
      const LocalAveragingResult full = local_averaging_with(cold, options);
      EXPECT_EQ(inc.x, full.x) << context;
      EXPECT_EQ(inc.view_omega, full.view_omega) << context;
      EXPECT_EQ(inc.beta, full.beta) << context;
      EXPECT_EQ(inc.ball_size, full.ball_size) << context;
    }
  }
}

TEST(IncrementalSolve, DedupFullPlanFeedsANonDedupIncrementalPlan) {
  // The memo fingerprint excludes deduplicate: a dedup full plan (every
  // member's slot copied from its representative) seeds the memo that a
  // non-dedup incremental plan then splices into.
  Instance working = make_grid_instance({.dims = {8, 8}});
  engine::Session session(working);
  const LocalAveragingResult seeded =
      local_averaging_incremental(session, {.R = 1, .deduplicate = true});
  EXPECT_LT(seeded.lp_solves, static_cast<std::size_t>(working.num_agents()));
  const Coef first = working.resource_support(0)[0];
  (void)session.apply(InstanceDelta{}.set_usage(0, first.id, 1.25));
  IncrementalStats stats;
  const LocalAveragingResult inc =
      local_averaging_incremental(session, {.R = 1}, &stats);
  EXPECT_TRUE(stats.incremental);
  engine::Session cold(static_cast<const Instance&>(working));
  const LocalAveragingResult full = local_averaging_with(cold, {.R = 1});
  EXPECT_EQ(inc.x, full.x);
  EXPECT_EQ(inc.view_omega, full.view_omega);
}

TEST(IncrementalSolve, EveryDampingRuleMatchesColdSolveBitwise) {
  // The per-agent rules (kBetaPerAgent, kNone) splice; the global ones
  // (kBetaGlobal, kNoneThenScale) re-run every agent. All four must
  // serve the bits of a cold solve after every delta.
  for (auto& [name, original] : test_instances()) {
    for (const AveragingDamping damping :
         {AveragingDamping::kBetaPerAgent, AveragingDamping::kBetaGlobal,
          AveragingDamping::kNone, AveragingDamping::kNoneThenScale}) {
      Instance working = original;
      engine::Session session(working);
      const LocalAveragingOptions options{.R = 1, .damping = damping};
      (void)local_averaging_incremental(session, options);  // prime
      const bool spliceable = damping == AveragingDamping::kBetaPerAgent ||
                              damping == AveragingDamping::kNone;
      int step = 0;
      for (const InstanceDelta& delta : delta_sequence(original)) {
        (void)session.apply(delta);
        const std::string context =
            name + " damping=" + std::to_string(static_cast<int>(damping)) +
            " step=" + std::to_string(++step);
        IncrementalStats stats;
        const LocalAveragingResult inc =
            local_averaging_incremental(session, options, &stats);
        EXPECT_EQ(stats.incremental, spliceable) << context;
        engine::Session cold(static_cast<const Instance&>(working));
        const LocalAveragingResult full = local_averaging_with(cold, options);
        EXPECT_EQ(inc.x, full.x) << context;
        EXPECT_EQ(inc.view_omega, full.view_omega) << context;
        EXPECT_EQ(inc.beta, full.beta) << context;
      }
    }
  }
}

TEST(IncrementalSolve, RemovalFallsBackToAFullSolveAndStaysExact) {
  Instance working = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(working);
  LocalAveragingOptions options;
  (void)local_averaging_incremental(session, options);
  (void)safe_solution_incremental(session);

  InstanceDelta removal;
  removal.remove_agent(10);
  (void)session.apply(removal);

  engine::Session cold(static_cast<const Instance&>(working));
  IncrementalStats stats;
  const LocalAveragingResult inc =
      local_averaging_incremental(session, options, &stats);
  EXPECT_FALSE(stats.incremental);  // full-invalidation fallback
  EXPECT_EQ(inc.x, local_averaging_with(cold, options).x);
  IncrementalStats safe_stats;
  const std::vector<double> safe_inc =
      safe_solution_incremental(session, &safe_stats);
  EXPECT_FALSE(safe_stats.incremental);
  EXPECT_EQ(safe_inc, safe_solution_with(cold));
}

TEST(IncrementalSolve, NonLocalOptionsAlwaysRunTheFullAlgorithm) {
  Instance working = make_grid_instance({.dims = {5, 5}, .torus = true});
  engine::Session session(working);
  LocalAveragingOptions global_damping;
  global_damping.damping = AveragingDamping::kBetaGlobal;
  IncrementalStats stats;
  (void)local_averaging_incremental(session, global_damping, &stats);
  EXPECT_FALSE(stats.incremental);

  InstanceDelta delta;
  const Coef first = working.resource_support(0)[0];
  delta.set_usage(0, first.id, first.value * 3.0);
  (void)session.apply(delta);
  const LocalAveragingResult inc =
      local_averaging_incremental(session, global_damping, &stats);
  EXPECT_FALSE(stats.incremental);
  engine::Session cold(static_cast<const Instance&>(working));
  EXPECT_EQ(inc.x, local_averaging_with(cold, global_damping).x);
}

TEST(IncrementalSolve, PrunedEditLogFallsBackToAFullSolveAndStaysExact) {
  // The session caps its edit log; a memo that sleeps through more
  // applies than the cap can no longer assemble its dirty region and
  // must fall back to a full solve (never a wrong splice).
  Instance working = make_grid_instance({.dims = {5, 5}, .torus = true});
  engine::Session session(working);
  (void)local_averaging_incremental(session, {});  // memo at revision 0

  const Coef first = working.resource_support(0)[0];
  for (int edit = 0; edit < 1100; ++edit) {  // > the 1024-record cap
    InstanceDelta delta;
    delta.set_usage(0, first.id, first.value * (1.0 + (edit % 7) * 0.01));
    (void)session.apply(delta);
  }

  IncrementalStats stats;
  const LocalAveragingResult inc =
      local_averaging_incremental(session, {}, &stats);
  EXPECT_FALSE(stats.incremental);  // log floor rose past the memo
  engine::Session cold(static_cast<const Instance&>(working));
  EXPECT_EQ(inc.x, local_averaging_with(cold, {}).x);

  // The refreshed memo splices again on the next edit.
  InstanceDelta delta;
  delta.set_usage(0, first.id, first.value * 2.0);
  (void)session.apply(delta);
  const LocalAveragingResult again =
      local_averaging_incremental(session, {}, &stats);
  EXPECT_TRUE(stats.incremental);
  engine::Session cold2(static_cast<const Instance&>(working));
  EXPECT_EQ(again.x, local_averaging_with(cold2, {}).x);
}

TEST(IncrementalSolve, NoOpReSolveTouchesNothing) {
  Instance working = make_grid_instance({.dims = {5, 5}, .torus = true});
  engine::Session session(working);
  const LocalAveragingResult first =
      local_averaging_incremental(session, {});
  IncrementalStats stats;
  const LocalAveragingResult again =
      local_averaging_incremental(session, {}, &stats);
  EXPECT_TRUE(stats.incremental);
  EXPECT_EQ(stats.dirty_agents, 0u);
  EXPECT_EQ(stats.resolved_agents, 0u);
  EXPECT_EQ(again.x, first.x);
}

// ---------------------------------------------------------------------
// The engine request surface.

TEST(EngineRequest, IncrementalRequestMatchesColdRequestAfterUpdates) {
  Instance working = make_grid_instance(
      {.dims = {6, 6}, .torus = true, .randomize = true, .seed = 5});
  engine::Session session(working);
  for (const char* algorithm :
       {"safe", "averaging", "distributed-averaging"}) {
    engine::SolveRequest request;
    request.algorithm = algorithm;
    request.incremental = true;
    (void)engine::solve(session, request);  // prime

    InstanceDelta delta;
    const Coef first = working.resource_support(3)[0];
    delta.set_usage(3, first.id, first.value * 1.5);
    (void)session.apply(delta);

    const engine::SolveResult inc = engine::solve(session, request);
    if (std::string(algorithm) == "distributed-averaging") {
      // The LOCAL-model reference ignores the knob: every agent re-runs.
      EXPECT_EQ(inc.diagnostics.count("incremental"), 0u) << algorithm;
    } else {
      EXPECT_EQ(inc.diagnostics.at("incremental"), 1.0) << algorithm;
      EXPECT_GT(inc.diagnostics.at("resolved_agents"), 0.0) << algorithm;
    }

    engine::Session cold(static_cast<const Instance&>(working));
    engine::SolveRequest full = request;
    full.incremental = false;
    const engine::SolveResult cold_result = engine::solve(cold, full);
    EXPECT_EQ(inc.x, cold_result.x) << algorithm;
    EXPECT_EQ(inc.omega, cold_result.omega) << algorithm;
  }
}

// ---------------------------------------------------------------------
// Wire: update commands.

TEST(Wire, ParsesAnUpdateCommand) {
  const engine::WireCommand command = engine::parse_command_line(
      R"({"op": "update", "set_usage": [{"i": 3, "v": 7, "a": 0.5}], )"
      R"("erase_benefit": [{"k": 1, "v": 2}], "add_agents": 2, )"
      R"("remove_agents": [4, 5], "id": 9})");
  EXPECT_EQ(command.kind, engine::WireCommand::Kind::kUpdate);
  EXPECT_EQ(command.id, "9");
  ASSERT_EQ(command.delta.usages.size(), 1u);
  EXPECT_EQ(command.delta.usages[0].row, 3);
  EXPECT_EQ(command.delta.usages[0].v, 7);
  EXPECT_EQ(command.delta.usages[0].value, 0.5);
  ASSERT_EQ(command.delta.benefits.size(), 1u);
  EXPECT_EQ(command.delta.benefits[0].row, 1);
  EXPECT_EQ(command.delta.benefits[0].value, 0.0);  // erase marker
  EXPECT_EQ(command.delta.new_agents, 2);
  EXPECT_EQ(command.delta.removed_agents, (std::vector<AgentId>{4, 5}));
}

TEST(Wire, SolveLinesStillParseAndCarryIncremental) {
  const engine::WireCommand command = engine::parse_command_line(
      R"({"algorithm": "averaging", "R": 2, "incremental": true})");
  EXPECT_EQ(command.kind, engine::WireCommand::Kind::kSolve);
  EXPECT_EQ(command.request.algorithm, "averaging");
  EXPECT_EQ(command.request.R, 2);
  EXPECT_TRUE(command.request.incremental);
}

TEST(Wire, RejectsBadUpdateLines) {
  // Unknown op.
  EXPECT_THROW(engine::parse_command_line(R"({"op": "mutate"})"), CheckError);
  // Unknown update key.
  EXPECT_THROW(
      engine::parse_command_line(R"({"op": "update", "frobnicate": 1})"),
      CheckError);
  // Solve keys on an update line.
  EXPECT_THROW(
      engine::parse_command_line(R"({"op": "update", "algorithm": "safe"})"),
      CheckError);
  // Unknown field inside an edit object.
  EXPECT_THROW(engine::parse_command_line(
                   R"({"op": "update", "set_usage": [{"i": 1, "v": 2, "x": 3}]})"),
               CheckError);
  // Missing field inside an edit object.
  EXPECT_THROW(engine::parse_command_line(
                   R"({"op": "update", "set_usage": [{"i": 1, "a": 0.5}]})"),
               CheckError);
  // Mixed array element kinds.
  EXPECT_THROW(engine::parse_command_line(
                   R"({"op": "update", "remove_agents": [1, {"v": 2}]})"),
               CheckError);
  // Arrays on solve lines.
  EXPECT_THROW(engine::parse_command_line(R"({"algorithm": "safe", "R": [1]})"),
               CheckError);
  // An update line parses as an update, never as a solve.
  EXPECT_EQ(engine::parse_command_line(R"({"op": "update"})").kind,
            engine::WireCommand::Kind::kUpdate);
}

TEST(Wire, ApplyReportSerialises) {
  engine::Session::ApplyReport report;
  report.revision = 3;
  report.structural = true;
  report.touched_agents = 5;
  report.repaired_entries = 2;
  report.apply_ms = 1.5;
  const std::string line = engine::apply_report_to_json_line(report, "7");
  EXPECT_EQ(line,
            "{\"id\": 7, \"op\": \"update\", \"revision\": 3, "
            "\"structural\": true, \"rebuilt\": false, "
            "\"touched_agents\": 5, \"repaired_entries\": 2, "
            "\"apply_ms\": 1.5}");
}

}  // namespace
}  // namespace mmlp
