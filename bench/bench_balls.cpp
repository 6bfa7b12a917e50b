// Ball enumeration (Section 1.5): B_H(v, r) for every agent via the
// chunked BallCollector sweep — the substrate under every view
// extraction and the Figure 2 growth sets. Reports ns/agent and ball
// volume counters into BENCH_balls.json. The <scenario>_sweep_scratch
// cases time the radius sweep 1..3 a client exploring R pays on one
// engine::Session, which builds every radius cold.
#include <algorithm>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/bench_report.hpp"

#include "scenarios.hpp"

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "balls",
      [](bench::Report& report, const std::string& scale, int reps) {
        for (const std::string& scenario :
             {std::string("grid_torus"), std::string("geometric"),
              std::string("isp")}) {
          for (const std::int64_t n : bench_scenarios::swept_sizes(scale)) {
            const Instance instance =
                bench_scenarios::make_scenario(scenario, n);
            const Hypergraph h = instance.communication_graph();
            for (const std::int32_t radius : {1, 2}) {
              std::vector<std::vector<NodeId>> balls;
              // Radius in the case name: (scenario, agents) pairs must
              // be unique for tools/compare_bench.py to diff them.
              auto& entry = report.run_case(
                  scenario + "_r" + std::to_string(radius),
                  instance.num_agents(), reps,
                  [&] { balls = all_balls(h, radius); });
              std::size_t max_ball = 0;
              std::size_t total = 0;
              for (const auto& ball : balls) {
                max_ball = std::max(max_ball, ball.size());
                total += ball.size();
              }
              entry.counters["R"] = static_cast<double>(radius);
              entry.counters["peak_ball"] = static_cast<double>(max_ball);
              entry.counters["avg_ball"] =
                  static_cast<double>(total) /
                  static_cast<double>(balls.size());
            }

            // Radius sweep 1..3 — a client exploring R on one session.
            std::vector<std::vector<NodeId>> balls;
            report.run_case(scenario + "_sweep_scratch", instance.num_agents(),
                            reps, [&] {
                              for (const std::int32_t r : {1, 2, 3}) {
                                balls = all_balls(h, r);
                              }
                            });
          }
        }
      });
}
