// Section 1.1 claim: local algorithms become self-stabilising algorithms
// with constant stabilisation time. Measures rounds-to-legitimacy after
// adversarial state corruption, across network sizes and horizons.
#include <cstdio>

#include "mmlp/core/safe.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/util/rng.hpp"
#include "mmlp/util/table.hpp"

int main() {
  using namespace mmlp;
  std::printf("=== Self-stabilisation of the flooding layer (Section 1.1) "
              "===\n\n");
  TableWriter table({"agents", "horizon", "corrupt entries", "rounds to legit",
                     "bound (horizon+1)", "safe output ok"});
  for (const std::int32_t side : {6, 12, 24}) {
    const auto instance =
        make_grid_instance({.dims = {side, side}, .torus = true});
    engine::Session session(instance);
    for (const std::int32_t horizon : {1, 2, 3}) {
      SelfStabilizingFlood flood(session.graph(false), horizon);
      Rng rng(99);
      flood.corrupt(rng, 16);
      std::int32_t rounds = 0;
      while (!flood.is_legitimate() && rounds < horizon + 4) {
        flood.step();
        ++rounds;
      }
      // eq. (2) read off the recovered tables (any horizon >= 1 covers
      // its radius-1 inputs) must be the centralized safe solution.
      const bool output_ok =
          horizon >= 1 && flood.is_legitimate() &&
          run_local(
              session,
              [&flood](AgentId v, std::vector<AgentId>& buffer) {
                return flood.knowledge(v, buffer);
              },
              LocalAlgorithm::kSafe) == safe_solution(instance);
      table.add_row({static_cast<std::int64_t>(side) * side,
                     static_cast<std::int64_t>(horizon), std::int64_t{16},
                     static_cast<std::int64_t>(rounds),
                     static_cast<std::int64_t>(horizon + 1),
                     std::string(output_ok ? "yes" : "NO")});
    }
  }
  table.print("Rounds until the legitimate state after corrupting every "
              "agent's table (constant in n, bounded by horizon+1)");
  return 0;
}
