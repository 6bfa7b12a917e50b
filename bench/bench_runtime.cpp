// LOCAL-model flooding (Section 1.1): SelfStabilizingFlood rounds from
// the all-empty state grow each agent's knowledge to B_H(v, h), one
// message per (agent, incident hyperedge, round). The first round from
// clear() only restores every self entry, so a horizon-h cold start is
// h + 1 rounds. Times them at horizons 1 and 3 and reports ns/agent,
// messages/round and knowledge-set volumes into BENCH_runtime.json.
#include <algorithm>

#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/util/bench_report.hpp"
#include "mmlp/util/check.hpp"

#include "scenarios.hpp"

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "runtime",
      [](bench::Report& report, const std::string& scale, int reps) {
        for (const std::string& scenario :
             {std::string("grid_torus"), std::string("isp")}) {
          for (const std::int64_t n : bench_scenarios::swept_sizes(scale)) {
            const Instance instance =
                bench_scenarios::make_scenario(scenario, n);
            const Hypergraph graph = instance.communication_graph();
            for (const std::int32_t horizon : {1, 3}) {
              SelfStabilizingFlood flood(graph, horizon);
              const std::int32_t rounds = horizon + 1;
              auto& entry = report.run_case(
                  scenario, instance.num_agents(), reps, [&] {
                    flood.clear();
                    for (std::int32_t round = 0; round < rounds; ++round) {
                      flood.step();
                    }
                  });
              MMLP_CHECK_MSG(flood.is_legitimate(),
                             "flood not legitimate after " << rounds
                                                           << " rounds");
              std::size_t max_known = 0;
              std::size_t total = 0;
              for (AgentId v = 0; v < instance.num_agents(); ++v) {
                const std::size_t known = flood.knowledge(v).size();
                max_known = std::max(max_known, known);
                total += known;
              }
              entry.counters["horizon"] = static_cast<double>(horizon);
              entry.counters["rounds"] = static_cast<double>(rounds);
              entry.counters["messages_per_round"] =
                  static_cast<double>(message_count(flood.graph(), 1));
              entry.counters["peak_knowledge"] =
                  static_cast<double>(max_known);
              entry.counters["avg_knowledge"] =
                  static_cast<double>(total) /
                  static_cast<double>(instance.num_agents());
            }
          }
        }
      });
}
