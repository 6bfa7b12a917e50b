#include "probe.hpp"

#include <algorithm>
#include <numeric>

#include "mmlp/core/view.hpp"
#include "mmlp/lp/simplex.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"
#include "stats.hpp"

namespace wirebench {

ProbeResult probe_view_lps(const mmlp::Instance& instance,
                           const std::vector<std::vector<mmlp::AgentId>>& balls,
                           std::int32_t radius, std::uint64_t seed,
                           std::size_t samples) {
  std::vector<mmlp::AgentId> agents(balls.size());
  std::iota(agents.begin(), agents.end(), 0);
  mmlp::Rng rng(seed ^ 0x9b0beULL);
  rng.shuffle(agents);
  agents.resize(std::min(samples, agents.size()));
  std::sort(agents.begin(), agents.end());

  mmlp::ViewScratch scratch;
  mmlp::LocalView view;
  const mmlp::SimplexOptions options;
  ProbeResult result;
  for (int pass = 0; pass <= kTimedPasses; ++pass) {
    std::uint64_t extract_ns = 0, build_ns = 0, solve_ns = 0;
    std::int64_t pivots = 0, lps = 0;
    for (const mmlp::AgentId u : agents) {
      const std::uint64_t t0 = now_ns();
      mmlp::extract_view_into(instance, u, radius,
                              balls[static_cast<std::size_t>(u)], view, scratch);
      const std::uint64_t t1 = now_ns();
      extract_ns += t1 - t0;
      if (view.parties.empty()) {
        continue;  // solve_view_lp answers x^u = 0 without an LP
      }
      mmlp::view_lp_into(view, scratch.lp);
      const std::uint64_t t2 = now_ns();
      const mmlp::LpResult lp = mmlp::solve_lp(scratch.lp, options, scratch.simplex);
      const std::uint64_t t3 = now_ns();
      MMLP_CHECK(lp.status == mmlp::LpStatus::kOptimal);
      build_ns += t2 - t1;
      solve_ns += t3 - t2;
      pivots += lp.iterations;
      ++lps;
    }
    if (pass > 0) {
      const auto per = [](std::uint64_t ns, std::int64_t count) {
        return count > 0 ? static_cast<double>(ns) * 1e-3 / static_cast<double>(count)
                         : 0.0;
      };
      const ProbeResult timed{
          .extract_us = per(extract_ns, static_cast<std::int64_t>(agents.size())),
          .lp_build_us = per(build_ns, static_cast<std::int64_t>(agents.size())),
          .solve_us = per(solve_ns, lps),
          .pivots_per_lp =
              lps > 0 ? static_cast<double>(pivots) / static_cast<double>(lps) : 0.0};
      result = pass == 1 ? timed
                         : ProbeResult{
                               .extract_us = std::min(result.extract_us, timed.extract_us),
                               .lp_build_us = std::min(result.lp_build_us, timed.lp_build_us),
                               .solve_us = std::min(result.solve_us, timed.solve_us),
                               .pivots_per_lp = timed.pivots_per_lp};
    }
  }
  return result;
}

}  // namespace wirebench
