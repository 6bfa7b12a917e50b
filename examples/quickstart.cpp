// Quickstart: define a max-min LP by hand, open an engine::Session on
// it, and run the three solver tiers through the unified
// SolveRequest/SolveResult API.
//
//   maximise min(benefit of k0, benefit of k1)
//   subject to shared resource budgets, x >= 0.
//
// Three agents: v0 serves k0, v2 serves k1, v1 serves both (half rate).
// v0 and v1 share resource i0; v1 and v2 share resource i1.
#include <cstdio>
#include <exception>

#include "mmlp/core/instance.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mmlp;
  ArgParser args("Quickstart: one hand-built instance through every solver tier.");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  // 1. Build the instance.
  Instance::Builder builder;
  const AgentId v0 = builder.add_agent();
  const AgentId v1 = builder.add_agent();
  const AgentId v2 = builder.add_agent();
  const ResourceId i0 = builder.add_resource();
  const ResourceId i1 = builder.add_resource();
  builder.set_usage(i0, v0, 1.0).set_usage(i0, v1, 1.0);
  builder.set_usage(i1, v1, 1.0).set_usage(i1, v2, 1.0);
  const PartyId k0 = builder.add_party();
  const PartyId k1 = builder.add_party();
  builder.set_benefit(k0, v0, 1.0).set_benefit(k0, v1, 0.5);
  builder.set_benefit(k1, v1, 0.5).set_benefit(k1, v2, 1.0);
  const Instance instance = std::move(builder).build();

  const auto bounds = instance.degree_bounds();
  std::printf("instance: %d agents, %d resources, %d parties "
              "(Delta_V^I = %zu)\n\n",
              instance.num_agents(), instance.num_resources(),
              instance.num_parties(), bounds.delta_V_of_I);

  // 2. Open a session: it owns the worker pool and caches every derived
  // structure (communication graph, balls, growth sets, LP scratch), so
  // each subsequent request pays only for its own algorithm.
  engine::Session session(instance);

  auto report = [&](const engine::SolveResult& result) {
    std::printf("%-22s x = (%.4f, %.4f, %.4f)  omega = %.4f  feasible = %s\n",
                result.algorithm.c_str(), result.x[0], result.x[1],
                result.x[2], result.omega, result.feasible ? "yes" : "NO");
    return result;
  };

  // 3. The safe algorithm (local, horizon 1, Delta_V^I-approximation).
  report(engine::solve(session, {.algorithm = "safe"}));

  // 4. The Theorem 3 averaging algorithm (local, horizon 2R+1).
  const engine::SolveResult averaging =
      report(engine::solve(session, {.algorithm = "averaging", .R = 1}));
  std::printf("%-22s a-priori ratio bound = %.4f\n", "",
              averaging.diagnostics.at("ratio_bound"));

  // 5. The global optimum (centralised LP).
  const engine::SolveResult exact =
      report(engine::solve(session, {.algorithm = "optimal"}));

  const double safe_omega =
      engine::solve(session, {.algorithm = "safe"}).omega;
  std::printf("\nmeasured ratios: safe %.3f, averaging %.3f "
              "(guarantees: %zu and %.3f)\n",
              exact.omega / safe_omega, exact.omega / averaging.omega,
              bounds.delta_V_of_I, averaging.diagnostics.at("ratio_bound"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value (CheckError from ArgParser or a generator) or any
  // other failure ends in one line on stderr and exit status 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "example_quickstart: %s\n", error.what());
    return 1;
  }
}
