// The engine layer: registry dispatch, the Session cache, and the
// warm == cold equivalence bar — for every registered solver, a solve
// on a hot session must be bitwise identical to the classic cold
// free-function path (the free functions are thin wrappers over a
// throwaway session, and cached balls/growth sets/scratch only donate
// capacity, never state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "mmlp/core/baselines.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/optimal.hpp"
#include "mmlp/core/safe.hpp"
#include "mmlp/core/sublinear.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace mmlp {
namespace {

// A pure hypertree instance: agents are the nodes of a complete
// (d, D)-ary hypertree, type I hyperedges become unit resources and
// type II hyperedges become parties (the Section 4 shape without the
// template-graph pairing).
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

std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  instances.push_back(make_grid_instance(
      {.dims = {6, 6}, .torus = true, .randomize = true, .seed = 3}));
  instances.push_back(make_random_instance({
      .num_agents = 60,
      .resources_per_agent = 3,
      .parties_per_agent = 2,
      .max_support = 4,
      .seed = 9,
  }));
  instances.push_back(make_hypertree_instance(2, 2, 3));
  return instances;
}

TEST(SolverRegistry, BuiltinRegistersTheExpectedAlgorithms) {
  const auto& registry = engine::SolverRegistry::builtin();
  const std::vector<std::string> expected = {
      "averaging",          "distributed-averaging",
      "distributed-safe",   "greedy",
      "optimal",            "safe",
      "selfstab-averaging", "selfstab-safe",
      "sublinear",          "uniform"};
  EXPECT_EQ(registry.names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name));
    EXPECT_FALSE(registry.find(name).description.empty());
  }
}

TEST(SolverRegistry, UnknownAlgorithmErrorNamesItAndTheRegisteredOnes) {
  const auto& registry = engine::SolverRegistry::builtin();
  EXPECT_FALSE(registry.contains("waterfall"));
  try {
    registry.find("waterfall");
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown algorithm 'waterfall'"), std::string::npos)
        << message;
    // The message lists what IS registered, so the caller can self-serve.
    EXPECT_NE(message.find("averaging"), std::string::npos) << message;
    EXPECT_NE(message.find("distributed-safe"), std::string::npos) << message;
  }
}

TEST(SolverRegistry, DuplicateRegistrationFails) {
  engine::SolverRegistry registry;
  const auto noop = [](engine::Session&, const engine::SolveRequest&,
                       engine::SolveResult&) {};
  registry.add({.name = "x", .description = "first", .run = noop});
  EXPECT_THROW(
      registry.add({.name = "x", .description = "again", .run = noop}),
      CheckError);
}

TEST(EngineSolve, ThreadCountMismatchFailsLoudly) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "safe"};
  request.threads = session.thread_count() + 5;
  EXPECT_THROW(engine::solve(session, request), CheckError);
}

// Warm solves must be bitwise equal to the cold free-function paths for
// every solver that returns a solution vector, on every instance family.
TEST(EngineSolve, WarmSessionMatchesColdFreeFunctionsBitwise) {
  for (const Instance& instance : test_instances()) {
    engine::Session session(instance);

    // Solve everything once to heat every cache the solvers touch …
    for (const std::string& name : engine::SolverRegistry::builtin().names()) {
      (void)engine::solve(session, {.algorithm = name, .R = 1});
    }

    // … then compare the *second* (fully warm) solves against cold runs.
    const auto warm = [&](const std::string& name) {
      return engine::solve(session, {.algorithm = name, .R = 1});
    };

    EXPECT_EQ(warm("safe").x, safe_solution(instance));
    EXPECT_EQ(warm("averaging").x, local_averaging(instance, {.R = 1}).x);
    EXPECT_EQ(warm("uniform").x, uniform_solution(instance));
    EXPECT_EQ(warm("greedy").x, greedy_waterfill(instance).x);
    EXPECT_EQ(warm("optimal").x, solve_optimal(instance).x);
    EXPECT_EQ(warm("distributed-safe").x, distributed_safe(instance));
    EXPECT_EQ(warm("distributed-averaging").x,
              distributed_local_averaging(instance, {.R = 1}));
    // The self-stabilizing executions start legitimate, so a fault-free
    // request is the fault-free distributed run, bitwise.
    EXPECT_EQ(warm("selfstab-safe").x, distributed_safe(instance));
    EXPECT_EQ(warm("selfstab-averaging").x,
              distributed_local_averaging(instance, {.R = 1}));

    const engine::SolveResult sublinear = warm("sublinear");
    const SublinearEstimate cold =
        estimate_mean_party_benefit(instance, {.samples = 64, .seed = 1});
    EXPECT_EQ(sublinear.diagnostics.at("mean_benefit"), cold.mean_benefit);
    EXPECT_EQ(sublinear.diagnostics.at("half_width"), cold.half_width);
    EXPECT_FALSE(sublinear.has_solution);
  }
}

TEST(EngineSolve, RepeatSolvesHitTheCaches) {
  const Instance instance = make_grid_instance({.dims = {8, 8}, .torus = true});
  engine::Session session(instance);
  const engine::SolveRequest request{.algorithm = "averaging", .R = 2};

  const engine::SolveResult first = engine::solve(session, request);
  EXPECT_GT(first.cache_misses, 0);
  EXPECT_TRUE(first.feasible);

  const engine::SolveResult second = engine::solve(session, request);
  EXPECT_EQ(second.cache_misses, 0);
  EXPECT_GT(second.cache_hits, 0);
  EXPECT_EQ(second.cache_build_ms, 0.0);
  EXPECT_EQ(second.x, first.x);

  // A new radius builds its own entries without disturbing the old ones.
  const engine::SolveResult radius3 =
      engine::solve(session, {.algorithm = "averaging", .R = 3});
  EXPECT_GT(radius3.cache_misses, 0);
  const engine::SolveResult again = engine::solve(session, request);
  EXPECT_EQ(again.cache_misses, 0);
  EXPECT_EQ(again.x, first.x);
}

TEST(EngineSolve, ResultCarriesEvaluationAndDiagnostics) {
  const Instance instance = make_grid_instance({.dims = {5, 5}});
  engine::Session session(instance);

  const engine::SolveResult averaging =
      engine::solve(session, {.algorithm = "averaging", .R = 1});
  EXPECT_TRUE(averaging.has_solution);
  EXPECT_TRUE(averaging.feasible);
  EXPECT_GT(averaging.omega, 0.0);
  EXPECT_EQ(averaging.party_benefit.size(),
            static_cast<std::size_t>(instance.num_parties()));
  EXPECT_GT(averaging.diagnostics.at("ratio_bound"), 0.0);
  EXPECT_EQ(averaging.diagnostics.at("R"), 1.0);
  EXPECT_GE(averaging.total_ms, averaging.cache_build_ms);

  const engine::SolveResult greedy =
      engine::solve(session, {.algorithm = "greedy"});
  EXPECT_GT(greedy.diagnostics.at("steps"), 0.0);

  const engine::SolveResult optimal =
      engine::solve(session, {.algorithm = "optimal"});
  EXPECT_EQ(optimal.diagnostics.at("exact"), 1.0);
  // ω* dominates every other feasible answer.
  EXPECT_GE(optimal.omega, averaging.omega);
  EXPECT_GE(optimal.omega, greedy.omega);
}

TEST(SessionCache, SharedAcrossSolverFamilies) {
  // distributed-safe needs radius-1 balls; averaging at R then needs its
  // own radius but shares the graph. The cache keys must not collide.
  const Instance instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  engine::Session session(instance);
  (void)engine::solve(session, {.algorithm = "distributed-safe"});
  const engine::SolveResult averaging =
      engine::solve(session, {.algorithm = "averaging", .R = 1});
  EXPECT_TRUE(averaging.feasible);
  EXPECT_EQ(averaging.x, local_averaging(instance, {.R = 1}).x);

  // Oblivious and full-graph entries are distinct cache keys.
  const engine::SolveResult oblivious = engine::solve(
      session,
      {.algorithm = "averaging", .R = 1, .collaboration_oblivious = true});
  LocalAveragingOptions cold_options;
  cold_options.R = 1;
  cold_options.collaboration_oblivious = true;
  EXPECT_EQ(oblivious.x, local_averaging(instance, cold_options).x);
}

TEST(SessionCache, BallsBuildIncrementallyFromSmallerRadii) {
  // Second radius ≡ cold build: balls requested after smaller radii
  // are cached on the same session must be element-for-element
  // identical to a cold session's build of that radius alone.
  const Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  for (const bool oblivious : {false, true}) {
    engine::Session warm(instance);
    (void)warm.balls(1, oblivious);
    (void)warm.balls(2, oblivious);
    const auto& later = warm.balls(3, oblivious);
    engine::Session cold(instance);
    EXPECT_EQ(later, cold.balls(3, oblivious));
  }
}

TEST(EngineSolve, DeduplicateRequestMatchesBitwiseAndReportsDiagnostics) {
  const Instance instance =
      make_grid_instance({.dims = {16, 16}, .torus = true});
  engine::Session session(instance);
  for (const char* const name :
       {"safe", "averaging", "distributed-averaging"}) {
    const std::string algorithm(name);
    const engine::SolveResult off =
        engine::solve(session, {.algorithm = algorithm, .R = 1});
    const engine::SolveResult on = engine::solve(
        session, {.algorithm = algorithm, .R = 1, .deduplicate = true});
    EXPECT_EQ(on.x, off.x) << algorithm;
    if (algorithm == "averaging") {
      EXPECT_LT(on.diagnostics.at("lp_solves"), off.diagnostics.at("lp_solves"))
          << algorithm;
      // The exact-orbit count is side-independent (49 at radius 1), so
      // the ratio grows with the torus; at 16x16 it is already strong.
      EXPECT_GT(on.diagnostics.at("dedup_ratio"), 0.5) << algorithm;
    } else {
      // safe and the LOCAL-model reference ignore the knob.
      EXPECT_EQ(on.diagnostics.count("dedup_ratio"), 0u) << algorithm;
    }
  }
  // The distributed reference serves the bits of deduplicated averaging.
  EXPECT_EQ(engine::solve(session, {.algorithm = "distributed-averaging",
                                    .R = 1})
                .x,
            engine::solve(session,
                          {.algorithm = "averaging", .R = 1,
                           .deduplicate = true})
                .x);
  // The orbit partition is cached: a repeat dedup solve misses nothing.
  const engine::SolveResult again = engine::solve(
      session, {.algorithm = "averaging", .R = 1, .deduplicate = true});
  EXPECT_EQ(again.cache_misses, 0);
}

TEST(Wire, ParsesEveryDocumentedKey) {
  const engine::WireCommand wire = engine::parse_command_line(
      R"({"algorithm": "averaging", "R": 2, "damping": "beta-global", )"
      R"("collaboration_oblivious": true, "deduplicate": true, )"
      R"("threads": 0, "seed": 7, )"
      R"("samples": 128, "confidence": 0.99, "greedy_max_steps": 500, )"
      R"("greedy_step_fraction": 0.25, "greedy_min_gain": 0.001, )"
      R"("simplex_max_iterations": 1000, "trace": true, "id": "req-1"})");
  EXPECT_EQ(wire.kind, engine::WireCommand::Kind::kSolve);
  EXPECT_EQ(wire.request.algorithm, "averaging");
  EXPECT_EQ(wire.request.R, 2);
  EXPECT_EQ(wire.request.damping, AveragingDamping::kBetaGlobal);
  EXPECT_TRUE(wire.request.collaboration_oblivious);
  EXPECT_TRUE(wire.request.deduplicate);
  EXPECT_EQ(wire.request.seed, 7u);
  EXPECT_EQ(wire.request.samples, 128);
  EXPECT_DOUBLE_EQ(wire.request.confidence, 0.99);
  EXPECT_EQ(wire.request.greedy.max_steps, 500);
  EXPECT_DOUBLE_EQ(wire.request.greedy.step_fraction, 0.25);
  EXPECT_DOUBLE_EQ(wire.request.greedy.min_gain, 0.001);
  EXPECT_EQ(wire.request.simplex.max_iterations, 1000);
  EXPECT_TRUE(wire.request.trace);
  EXPECT_EQ(wire.id, "\"req-1\"");  // echoed verbatim, quotes included
}

TEST(Wire, StatsOpRoundTrips) {
  const engine::WireCommand command =
      engine::parse_command_line(R"({"op": "stats", "id": 42})");
  EXPECT_EQ(command.kind, engine::WireCommand::Kind::kStats);
  EXPECT_EQ(command.id, "42");
  // Solve keys on a stats line fail loudly, like everywhere else.
  EXPECT_THROW(engine::parse_command_line(R"({"op": "stats", "R": 2})"),
               CheckError);

  Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  (void)engine::solve(session, {.algorithm = "averaging", .R = 1});
  const std::string line = engine::stats_to_json_line(session, "42");
  EXPECT_NE(line.find("\"id\": 42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"op\": \"stats\""), std::string::npos);
  EXPECT_NE(line.find("\"cache_hits\": "), std::string::npos);
  EXPECT_NE(line.find("\"workers\": ["), std::string::npos);
  // The embedded registry snapshot carries the engine's own metrics.
  EXPECT_NE(line.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(line.find("\"engine.requests\""), std::string::npos);
  // Balanced braces — the line must embed the snapshot as valid JSON.
  EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
            std::count(line.begin(), line.end(), '}'));
}

TEST(Engine, SolveSurfacesObsCounterDeltas) {
  Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  const engine::SolveResult result =
      engine::solve(session, {.algorithm = "averaging", .R = 1});
  // An averaging solve runs one view LP per agent, so the per-request
  // simplex delta must cover all of them (the counters are process-wide
  // and monotone, so concurrent tests can only push the delta up).
  ASSERT_TRUE(result.counters.count("simplex_solves"));
  EXPECT_GE(result.counters.at("simplex_solves"),
            static_cast<std::int64_t>(instance.num_agents()));
  ASSERT_TRUE(result.counters.count("bfs_ball_expansions"));
  EXPECT_GE(result.counters.at("bfs_ball_expansions"),
            static_cast<std::int64_t>(instance.num_agents()));

  const std::string line =
      engine::result_to_json_line(result, "", /*emit_x=*/false);
  EXPECT_NE(line.find("\"counters\": {"), std::string::npos) << line;
  EXPECT_NE(line.find("\"simplex_solves\": "), std::string::npos);
}

TEST(Engine, TraceRequestCollectsSpansAndRestoresTheSwitch) {
  obs::Tracer::instance().set_enabled(false);
  obs::Tracer::instance().clear();
  Instance instance = make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  ASSERT_FALSE(obs::tracing_enabled());
  (void)engine::solve(session,
                      {.algorithm = "averaging", .R = 1, .trace = true});
  // The scoped enable turned tracing off again on exit...
  EXPECT_FALSE(obs::tracing_enabled());
  // ...but the spans of the traced request were collected: the cold
  // solve builds caches and runs the view-LP stage.
  const auto events = obs::Tracer::instance().events();
  ASSERT_FALSE(events.empty());
  bool saw_view_lps = false;
  bool saw_build = false;
  for (const auto& [tid, event] : events) {
    saw_view_lps = saw_view_lps ||
                   std::string_view(event.name) == "averaging.view_lps";
    saw_build = saw_build ||
                std::string_view(event.name) == "session.build_balls";
  }
  EXPECT_TRUE(saw_view_lps);
  EXPECT_TRUE(saw_build);
  obs::Tracer::instance().clear();
}

TEST(Wire, RejectsUnknownKeysAndMalformedLines) {
  EXPECT_THROW(engine::parse_command_line(R"({"algoritm": "safe"})"),
               CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"R": "two"})"), CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"R": 1.5})"), CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"damping": "sideways"})"),
               CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"algorithm": "safe"} trailing)"),
               CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"x": [1, 2]})"), CheckError);
  EXPECT_THROW(engine::parse_command_line("not json"), CheckError);
}

TEST(Wire, RejectsIntegersOutsideInt64Range) {
  // 1e19 > 2^63: the cast would be UB, so the parser must throw instead.
  EXPECT_THROW(engine::parse_command_line(R"({"seed": 10000000000000000000})"),
               CheckError);
  EXPECT_THROW(engine::parse_command_line(R"({"samples": 1e30})"), CheckError);
  EXPECT_EQ(engine::parse_command_line(R"({"seed": 4000000000000000000})")
                .request.seed,
            4000000000000000000ull);
}

TEST(Wire, JsonEscapeCoversQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(engine::json_escape("plain"), "plain");
  EXPECT_EQ(engine::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  // Control characters (e.g. a tab inside a CheckError message echoed
  // into an {"error": ...} line) must become \u escapes, not raw bytes.
  EXPECT_EQ(engine::json_escape("tab\there"), "tab\\u0009here");
  EXPECT_EQ(engine::json_escape("nl\n"), "nl\\u000a");
}

TEST(Wire, DampingNamesRoundTrip) {
  for (const AveragingDamping damping :
       {AveragingDamping::kBetaPerAgent, AveragingDamping::kBetaGlobal,
        AveragingDamping::kNone, AveragingDamping::kNoneThenScale}) {
    EXPECT_EQ(engine::damping_from_name(engine::to_name(damping)), damping);
  }
}

TEST(Wire, ResultSerialisesTheBreakdownAndOptionalX) {
  engine::SolveResult result;
  result.algorithm = "safe";
  result.has_solution = true;
  result.x = {0.5, 0.25};
  result.omega = 0.75;
  result.feasible = true;
  result.total_ms = 1.5;
  result.cache_build_ms = 0.5;
  result.solve_ms = 1.0;
  result.cache_hits = 3;
  result.diagnostics["steps"] = 4.0;

  const std::string without_x =
      engine::result_to_json_line(result, "7", /*emit_x=*/false);
  EXPECT_NE(without_x.find("\"id\": 7"), std::string::npos) << without_x;
  EXPECT_NE(without_x.find("\"algorithm\": \"safe\""), std::string::npos);
  EXPECT_NE(without_x.find("\"omega\": 0.75"), std::string::npos);
  EXPECT_NE(without_x.find("\"cache_build_ms\": 0.5"), std::string::npos);
  EXPECT_NE(without_x.find("\"steps\": 4"), std::string::npos);
  EXPECT_EQ(without_x.find("\"x\""), std::string::npos);

  const std::string with_x =
      engine::result_to_json_line(result, "", /*emit_x=*/true);
  EXPECT_EQ(with_x.find("\"id\""), std::string::npos);
  EXPECT_NE(with_x.find("\"x\": [0.5, 0.25]"), std::string::npos) << with_x;
}

TEST(Wire, DefinedInfinitiesEncodeAsNull) {
  // ω of an instance whose last party was removed is the min over no
  // party: +inf.
  Instance::Builder builder;
  for (int v = 0; v < 3; ++v) {
    builder.add_agent();
  }
  const ResourceId i = builder.add_resource();
  builder.set_usage(i, 0, 1.0).set_usage(i, 1, 1.0).set_usage(i, 2, 1.0);
  builder.set_benefit(builder.add_party(), 2, 1.0);
  Instance partyless = std::move(builder).build();
  engine::Session session(partyless);
  (void)session.apply(InstanceDelta{}.remove_agent(2));
  ASSERT_EQ(partyless.num_parties(), 0);
  for (const char* algorithm : {"safe", "averaging"}) {
    const engine::SolveResult result =
        engine::solve(session, {.algorithm = algorithm, .R = 1});
    ASSERT_TRUE(std::isinf(result.omega)) << algorithm;
    const std::string line = engine::result_to_json_line(result, "1", false);
    EXPECT_NE(line.find("\"omega\": null, \"feasible\": true"),
              std::string::npos)
        << line;
  }

  // Collaboration-oblivious averaging with some S_k empty: its
  // ratio_bound is +inf.
  const Instance random = make_random_instance({.num_agents = 2000,
                                                .resources_per_agent = 3,
                                                .parties_per_agent = 2,
                                                .max_support = 4,
                                                .seed = 1});
  engine::Session oblivious(random);
  const engine::SolveResult averaging = engine::solve(
      oblivious,
      {.algorithm = "averaging", .R = 1, .collaboration_oblivious = true});
  ASSERT_TRUE(std::isinf(averaging.diagnostics.at("ratio_bound")));
  const std::string line = engine::result_to_json_line(averaging, "", false);
  EXPECT_NE(line.find("\"ratio_bound\": null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"omega\": 0, "), std::string::npos) << line;
}

TEST(Wire, OtherNonFiniteResultValuesStillThrow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto encode = [](double omega, const char* key, double value) {
    engine::SolveResult result;
    result.algorithm = "safe";
    result.has_solution = true;
    result.omega = omega;
    result.diagnostics[key] = value;
    return engine::result_to_json_line(result, "", false);
  };
  EXPECT_NO_THROW(encode(inf, "ratio_bound", inf));
  EXPECT_THROW(encode(-inf, "ratio_bound", 1.0), CheckError);
  EXPECT_THROW(encode(nan, "ratio_bound", 1.0), CheckError);
  EXPECT_THROW(encode(1.0, "ratio_bound", -inf), CheckError);
  EXPECT_THROW(encode(1.0, "ratio_bound", nan), CheckError);
  EXPECT_THROW(encode(1.0, "steps", inf), CheckError);
}

}  // namespace
}  // namespace mmlp
