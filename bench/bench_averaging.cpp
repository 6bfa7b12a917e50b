// E9 — Theorem 3 algorithm: per-node work depends on the R-ball volume
// (constant on bounded-growth graphs), so total time is linear in n for
// fixed R. Sweeps n at R = 1 over grid/geometric workloads plus an
// R-sweep at fixed n, reporting ns/agent, the Figure 2 ratio bound and
// the peak ball size into BENCH_averaging.json.
//
// Each timed run goes through a *fresh* engine::Session (the historical
// cold-path series: every repetition pays for balls and growth sets);
// the warm repeat-solve economics live in bench_engine.

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/bench_report.hpp"

#include "scenarios.hpp"

namespace {

void run_one(mmlp::bench::Report& report, const std::string& scenario,
             const mmlp::Instance& instance, std::int32_t radius, int reps) {
  mmlp::LocalAveragingResult result;
  auto& entry = report.run_case(
      scenario, instance.num_agents(), reps, [&] {
        mmlp::engine::Session session(instance);
        result = mmlp::local_averaging_with(session, {.R = radius});
      });
  entry.counters["R"] = static_cast<double>(radius);
  entry.counters["ratio_bound"] = result.ratio_bound;
  entry.counters["peak_ball"] = static_cast<double>(result.peak_ball);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "averaging",
      [](bench::Report& report, const std::string& scale, int reps) {
        bench_scenarios::for_each_scenario(
            {"grid_torus", "geometric"}, scale,
            [&](const std::string& scenario, const Instance& instance) {
              run_one(report, scenario, instance, /*radius=*/1, reps);
            });
        // Radius sweep at fixed n: the per-agent cost grows with the
        // R-ball volume (|B(u,R)| ~ 2R^2 on the torus).
        const std::int64_t sweep_n = scale == "smoke" ? 256 : 2500;
        const Instance instance =
            bench_scenarios::make_grid_torus(sweep_n);
        for (const std::int32_t radius : {2, 3}) {
          run_one(report, "grid_torus_radius", instance, radius, reps);
        }
      });
}
