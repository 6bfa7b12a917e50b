// Thread-count invariance across the whole registry.
//
// The engine's contract is that the worker pool is an implementation
// detail: the same request on the same instance returns a bitwise-
// identical SolveResult whether the session runs 1, 2, or 8 workers.
// test_local_averaging pins this for the averaging solver; this file
// extends the matrix to every registered solver on a grid and a random
// scenario. Estimator solvers (sublinear) carry their answer in
// diagnostics instead of x, so diagnostics are compared bitwise too —
// timing-dependent entries excepted.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"

namespace mmlp {
namespace {

using engine::Session;
using engine::SessionOptions;
using engine::SolveRequest;
using engine::SolveResult;
using engine::SolverRegistry;

// Diagnostics that measure the run instead of describing the answer.
bool timing_dependent(const std::string& key) {
  return key.find("_ms") != std::string::npos ||
         key.find("wall") != std::string::npos;
}

void expect_same_answer(const SolveResult& base, const SolveResult& other,
                        const std::string& label) {
  ASSERT_EQ(base.has_solution, other.has_solution) << label;
  ASSERT_EQ(base.x.size(), other.x.size()) << label;
  for (std::size_t v = 0; v < base.x.size(); ++v) {
    ASSERT_EQ(base.x[v], other.x[v]) << label << " at agent " << v;
  }
  EXPECT_EQ(base.omega, other.omega) << label;
  EXPECT_EQ(base.feasible, other.feasible) << label;
  ASSERT_EQ(base.party_benefit, other.party_benefit) << label;
  for (const auto& [key, value] : base.diagnostics) {
    if (timing_dependent(key)) {
      continue;
    }
    const auto found = other.diagnostics.find(key);
    ASSERT_NE(found, other.diagnostics.end()) << label << " missing " << key;
    EXPECT_EQ(value, found->second) << label << " diagnostics[" << key << "]";
  }
}

SolveRequest request_for(const std::string& algorithm) {
  SolveRequest request;
  request.algorithm = algorithm;
  request.R = 1;
  if (algorithm == "sublinear") {
    request.seed = 17;  // the estimate is a function of (instance, seed)
    request.samples = 64;
  }
  return request;
}

TEST(ThreadInvariance, EveryRegistrySolverOnEveryPoolSize) {
  const std::vector<std::pair<std::string, Instance>> scenarios = {
      {"grid", make_grid_instance({.dims = {6, 6},
                                   .torus = true,
                                   .randomize = true,
                                   .seed = 3})},
      {"random", make_random_instance({
                     .num_agents = 60,
                     .resources_per_agent = 3,
                     .parties_per_agent = 2,
                     .max_support = 4,
                     .seed = 9,
                 })},
  };
  const std::vector<std::string> algorithms = SolverRegistry::builtin().names();
  ASSERT_EQ(algorithms.size(), 10u);  // incl. the selfstab-* executions

  for (const auto& [scenario, instance] : scenarios) {
    for (const std::string& algorithm : algorithms) {
      const SolveRequest request = request_for(algorithm);
      Session reference(instance, SessionOptions{.threads = 1});
      const SolveResult base = engine::solve(reference, request);
      for (const std::size_t threads : {2u, 8u}) {
        Session session(instance, SessionOptions{.threads = threads});
        const SolveResult other = engine::solve(session, request);
        expect_same_answer(base, other,
                           scenario + "/" + algorithm + "/threads=" +
                               std::to_string(threads));
      }
    }
  }
}

TEST(ThreadInvariance, DedupAndObliviousVariantsToo) {
  // The two request knobs that reroute the parallel loops most: view
  // deduplication (one LP per view orbit, copied back) and oblivious mode
  // (different communication graph).
  const Instance instance = make_grid_instance(
      {.dims = {6, 6}, .torus = true, .randomize = true, .seed = 3});
  for (const bool deduplicate : {false, true}) {
    for (const bool oblivious : {false, true}) {
      SolveRequest request;
      request.algorithm = "averaging";
      request.R = 1;
      request.deduplicate = deduplicate;
      request.collaboration_oblivious = oblivious;
      Session reference(instance, SessionOptions{.threads = 1});
      const SolveResult base = engine::solve(reference, request);
      for (const std::size_t threads : {2u, 8u}) {
        Session session(instance, SessionOptions{.threads = threads});
        expect_same_answer(base, engine::solve(session, request),
                           "dedup=" + std::to_string(deduplicate) +
                               "/oblivious=" + std::to_string(oblivious) +
                               "/threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ThreadInvariance, ShardedSessionSharedPoolSizesToo) {
  // The sharded path runs every shard session plus the fan-out on ONE
  // shared cooperative pool (nested bulk regions), so its thread budget
  // is a second scheduler shape to pin: T=1 vs T=8 on the same
  // partition must stitch bitwise-identical answers.
  const Instance instance = make_grid_instance(
      {.dims = {8, 8}, .torus = true, .randomize = true, .seed = 3});
  for (const char* algorithm : {"safe", "averaging"}) {
    const SolveRequest request = request_for(algorithm);
    engine::ShardedSession reference(
        instance,
        engine::ShardedOptions{.shards = 4, .halo_radius = 3, .threads = 1});
    const SolveResult base = reference.solve(request);
    for (const std::size_t threads : {2u, 8u}) {
      engine::ShardedSession sharded(
          instance, engine::ShardedOptions{.shards = 4,
                                           .halo_radius = 3,
                                           .threads = threads});
      expect_same_answer(base, sharded.solve(request),
                         std::string("sharded/") + algorithm +
                             "/threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace mmlp
