// E2 — Figure 2: the set machinery of the Theorem 3 algorithm.
//
// For grids and random bounded-degree instances, computes the quantities
// V^u, S_k, m_k, M_k, U_i, N_i, n_i and verifies the identities the
// algorithm's analysis rests on:
//   V_k ⊆ S_k (full-H mode), m_k ≤ M_k,
//   max_k M_k/m_k ≤ γ(R−1), max_i N_i/n_i ≤ γ(R).
#include <cstdio>

#include "mmlp/core/view.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/growth.hpp"
#include "mmlp/util/table.hpp"

namespace {

void report(const char* name, const mmlp::Instance& instance,
            std::int32_t max_radius, mmlp::TableWriter& table) {
  using namespace mmlp;
  const auto h = instance.communication_graph();
  const auto profile = growth_profile(h, max_radius);
  for (std::int32_t R = 1; R <= max_radius; ++R) {
    const auto balls = all_balls(h, R);
    const auto sets = compute_growth_sets(instance, balls);
    // V_k ⊆ S_k check.
    bool vk_in_sk = true;
    for (PartyId k = 0; k < instance.num_parties(); ++k) {
      if (sets.m_k[static_cast<std::size_t>(k)] <
          instance.party_support(k).size()) {
        vk_in_sk = false;
      }
    }
    const double gamma_prev = profile[static_cast<std::size_t>(R) - 1];
    const double gamma_r = profile[static_cast<std::size_t>(R)];
    table.add_row({std::string(name), static_cast<std::int64_t>(R),
                   sets.max_party_ratio(), gamma_prev,
                   sets.max_resource_ratio(), gamma_r, sets.ratio_bound,
                   gamma_prev * gamma_r,
                   std::string(vk_in_sk ? "yes" : "NO"),
                   std::string(sets.max_party_ratio() <= gamma_prev + 1e-9 &&
                                       sets.max_resource_ratio() <=
                                           gamma_r + 1e-9
                                   ? "yes"
                                   : "NO")});
  }
}

}  // namespace

int main() {
  using namespace mmlp;
  std::printf("=== E2: Figure 2 — sets V^u, S_k, U_i and their ratios ===\n\n");
  TableWriter table({"graph", "R", "max Mk/mk", "gamma(R-1)", "max Ni/ni",
                     "gamma(R)", "set bound", "gamma product", "Vk in Sk",
                     "bounds hold"},
                    4);
  report("torus 12x12", make_grid_instance({.dims = {12, 12}, .torus = true}),
         3, table);
  report("grid 12x12",
         make_grid_instance({.dims = {12, 12}, .torus = false}), 3, table);
  report("torus 48 (1D)", make_grid_instance({.dims = {48}, .torus = true}), 3,
         table);
  report("random n=200",
         make_random_instance({.num_agents = 200,
                               .resources_per_agent = 2,
                               .parties_per_agent = 1,
                               .max_support = 3,
                               .seed = 2}),
         2, table);
  table.print("Theorem 3 set ratios vs growth bounds "
              "(set bound = max Mk/mk * max Ni/ni <= gamma(R-1)*gamma(R))");
  return 0;
}
