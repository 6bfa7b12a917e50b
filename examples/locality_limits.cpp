// What locality costs: a walk through the Theorem 1 lower-bound
// construction. Builds S, shows that a horizon-1 algorithm cannot
// distinguish S from the adversarial restriction S', and measures the
// price it pays there.
#include <cstdio>
#include <exception>

#include "mmlp/core/solution.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/lowerbound.hpp"
#include "mmlp/util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mmlp;
  ArgParser args("Theorem 1 lower-bound walkthrough (paper §4).");
  args.add_flag("d", "type I fanout (Delta_V^I = d+1)", "2");
  args.add_flag("D", "type II fanout (Delta_V^K = D+1)", "2");
  args.add_flag("R", "tree parameter (R > r = 1)", "2");
  args.add_flag("seed", "construction seed", "1");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  LowerBoundParams params;
  params.d = static_cast<std::int32_t>(args.get_int("d"));
  params.D = static_cast<std::int32_t>(args.get_int("D"));
  params.r = 1;
  params.R = static_cast<std::int32_t>(args.get_int("R"));
  params.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto lb = build_lower_bound_instance(params);

  std::printf("S: %d hypertrees of %d agents each (template Q: %d-regular "
              "bipartite, girth >= 6)\n",
              lb.num_trees, lb.tree_size, lb.degree);

  // The adversary's moves (solves routed through the engine registry).
  engine::Session session_s(lb.instance);
  const auto safe_s = engine::solve(session_s, {.algorithm = "safe"});
  const auto delta = compute_delta(lb, safe_s.x);
  const std::int32_t p = select_p(delta);
  std::printf("safe run on S: omega = %.4f; adversary picks tree p = %d "
              "(delta(p) = %.4f >= 0)\n",
              safe_s.omega, p, delta[static_cast<std::size_t>(p)]);

  const auto sub = build_s_prime(lb, p);
  std::printf("S': %d agents (T_p plus radius-2 balls around its leaves)\n",
              sub.instance.num_agents());

  // What the omniscient solver achieves there.
  const auto x_hat = alternating_solution(sub);
  std::printf("alternating solution x-hat: omega = %.4f (feasible: %s) — so "
              "omega*(S') >= 1\n",
              evaluate(sub.instance, x_hat).omega,
              evaluate(sub.instance, x_hat).feasible() ? "yes" : "NO");

  // What any horizon-1 algorithm is forced into. The radius-1 views of
  // T_p agents are identical in S and S', so the safe algorithm repeats
  // its choices; running it on S' directly gives the same values.
  engine::Session session_sub(sub.instance);
  const double omega_local =
      engine::solve(session_sub, {.algorithm = "safe"}).omega;
  std::printf("safe on S': omega = %.4f  =>  ratio >= %.4f\n", omega_local,
              1.0 / omega_local);
  std::printf("Theorem 1 bound: %.4f (finite-R: %.4f)\n",
              theorem1_bound(params.d, params.D),
              theorem1_bound_finite(params.d, params.D, params.R));
  std::printf("\nconclusion: no matter how the horizon-1 algorithm is "
              "designed, on one of S/S'\nit loses at least the bound — "
              "locality has an unavoidable price here.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value (CheckError from ArgParser or a generator) or any
  // other failure ends in one line on stderr and exit status 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "example_locality_limits: %s\n", error.what());
    return 1;
  }
}
