// Simplex substrate (Section 1.3): global max-min LP solves vs n, plus
// the per-agent view-LP throughput that dominates Theorem 3 (the
// ViewScratch/SimplexWorkspace hot path). Reports ns/agent and pivot
// counts into BENCH_simplex.json.
#include "mmlp/core/view.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/lp/maxmin_reduction.hpp"
#include "mmlp/util/bench_report.hpp"
#include "mmlp/util/obs.hpp"

#include "scenarios.hpp"

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "simplex",
      [](bench::Report& report, const std::string& scale, int reps) {
        // Global solves: the dense tableau is O(n^2) memory, so the
        // sweep stays small by design (the local algorithms exist
        // precisely because this does not scale).
        const std::vector<std::int64_t> global_sizes =
            scale == "smoke" ? std::vector<std::int64_t>{49}
                             : std::vector<std::int64_t>{100, 400, 900};
        for (const std::int64_t n : global_sizes) {
          const Instance instance = bench_scenarios::make_grid_torus(n);
          MaxMinLpResult result;
          auto& entry = report.run_case(
              "maxmin_grid", instance.num_agents(), reps,
              [&] { result = solve_maxmin_simplex(instance); });
          entry.counters["pivots"] = static_cast<double>(result.iterations);
        }

        // Per-agent view LPs: one small LP per agent, workspace reused —
        // the exact inner loop of local_averaging — on the uniform torus
        // and at wirebench averaging_random's shape (random supports, no
        // view symmetry). One view LP per agent, so ns_per_agent is the
        // time of one extraction, build and solve.
        obs::Counter& pivot_counter =
            obs::Registry::global().counter("simplex.pivots");
        const auto view_lp_case = [&](const std::string& scenario,
                                      const Instance& instance) {
          const Hypergraph h = instance.communication_graph();
          const auto balls = all_balls(h, 1);
          std::int64_t solved = 0;
          std::int64_t pivots = 0;
          auto& entry = report.run_case(
              scenario, instance.num_agents(), reps, [&] {
                ViewScratch scratch;
                LocalView view;
                solved = 0;
                const std::int64_t pivots_before = pivot_counter.value();
                for (AgentId u = 0; u < instance.num_agents(); ++u) {
                  extract_view_into(instance, u, 1,
                                    balls[static_cast<std::size_t>(u)], view,
                                    scratch);
                  const ViewLpSolution solution =
                      solve_view_lp(view, {}, scratch);
                  solved += solution.status == LpStatus::kOptimal ? 1 : 0;
                }
                pivots = pivot_counter.value() - pivots_before;
              });
          entry.counters["lps_solved"] = static_cast<double>(solved);
          entry.counters["pivots_per_lp"] =
              static_cast<double>(pivots) /
              static_cast<double>(instance.num_agents());
        };
        for (const std::int64_t n : bench_scenarios::swept_sizes(scale)) {
          view_lp_case("view_lp_grid", bench_scenarios::make_grid_torus(n));
          view_lp_case("view_lp_random", bench_scenarios::make_random(n));
        }
      });
}
