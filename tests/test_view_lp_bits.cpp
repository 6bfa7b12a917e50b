// Golden bits of the view-LP pipeline. Every view LP of Theorem 3 runs
// through extract_view_into and solve_lp; a change to either kernel that
// is meant to be a pure speed-up must leave every output bit where it
// was. The constants below were recorded before the rank dedupe of the
// view's id lists and the nonzero-only pivot went in: FNV-1a over the
// raw bits of local_averaging's x and view_omega plus the pivot count,
// on three instance families at R = 1, 2 in both hypergraph modes, and
// status/iterations/objective/x of test_simplex_property's random LPs.
//
// Contracted multiply-adds (FMA) would round differently from the
// separate multiply and subtract the constants were recorded with; the
// mmlp target compiles itself and everything linking it with
// -ffp-contract=off, so the pin holds on every target.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/lowerbound.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/lp/simplex.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/rng.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

using testing::Fnv1a;

std::int64_t pivots_so_far() {
  return obs::Registry::global().counter("simplex.pivots").value();
}

struct Golden {
  const char* instance;
  std::int32_t R;
  bool oblivious;
  std::uint64_t hash;
  std::int64_t pivots;
};

// {instance, R, collaboration_oblivious, FNV-1a of x and view_omega, pivots}.
constexpr Golden kAveragingGolden[] = {
    {"random", 1, false, 0xa888cc7b58739e6fULL, 11841},
    {"random", 1, true, 0x5f9cc00da7779f45ULL, 0},
    {"random", 2, false, 0x4ec45dd8fc778dedULL, 131438},
    {"random", 2, true, 0x4a75a384276dc7e7ULL, 14},
    {"torus", 1, false, 0x49f8130886cc4386ULL, 4495},
    {"torus", 1, true, 0x49f8130886cc4386ULL, 4495},
    {"torus", 2, false, 0xa8b39663cc8664c7ULL, 19371},
    {"torus", 2, true, 0xa8b39663cc8664c7ULL, 19371},
    {"lowerbound", 1, false, 0xb8850b6502b87bbdULL, 3876},
    {"lowerbound", 1, true, 0x4da159286fcf4ea5ULL, 0},
    {"lowerbound", 2, false, 0x36bbf60624a626bdULL, 10260},
    {"lowerbound", 2, true, 0x4da159286fcf4ea5ULL, 0},
};

Instance golden_instance(const std::string& name) {
  if (name == "random") {
    // averaging_random's shape (wirebench), at 2000 agents.
    return make_random_instance({
        .num_agents = 2000,
        .resources_per_agent = 3,
        .parties_per_agent = 2,
        .max_support = 4,
        .seed = 7,
    });
  }
  if (name == "torus") {
    return make_grid_instance(
        {.dims = {20, 20}, .torus = true, .randomize = true, .seed = 11});
  }
  LowerBoundParams params;
  params.d = 2;
  params.D = 2;
  params.r = 1;
  params.R = 2;
  params.seed = 3;
  return build_lower_bound_instance(params).instance;
}

TEST(ViewLpBits, LocalAveragingMatchesTheRecordedBits) {
  std::string current;
  Instance instance;
  for (const Golden& golden : kAveragingGolden) {
    if (current != golden.instance) {
      current = golden.instance;
      instance = golden_instance(current);
    }
    const std::int64_t before = pivots_so_far();
    const auto result = local_averaging(
        instance, {.R = golden.R, .collaboration_oblivious = golden.oblivious});
    const std::int64_t pivots = pivots_so_far() - before;
    Fnv1a hash;
    hash.add(result.x);
    hash.add(result.view_omega);
    EXPECT_EQ(hash.value(), golden.hash)
        << golden.instance << " R=" << golden.R << " oblivious=" << golden.oblivious;
    EXPECT_EQ(pivots, golden.pivots)
        << golden.instance << " R=" << golden.R << " oblivious=" << golden.oblivious;
  }
}

// The random LPs of test_simplex_property, drawn the same way: per seed,
// 40 <=-only LPs, then 25 LPs solved without and with a redundant
// >= row (kGe rows take the two-phase path).
LpProblem two_var_problem(Rng& rng, std::int64_t max_rows, double b_lo) {
  LpProblem problem;
  problem.num_vars = 2;
  const auto rows = rng.uniform_int(1, max_rows);
  const double c0 = rng.uniform(0.1, 2.0);
  const double c1 = rng.uniform(0.1, 2.0);
  problem.objective = {c0, c1};
  for (std::int64_t r = 0; r < rows; ++r) {
    const double a0 = rng.uniform(0.1, 2.0);
    const double a1 = rng.uniform(0.1, 2.0);
    auto& row = problem.add_row(ConstraintSense::kLe, rng.uniform(b_lo, 3.0));
    row.vars = {0, 1};
    row.coeffs = {a0, a1};
  }
  return problem;
}

void add_result(Fnv1a& hash, const LpResult& result) {
  hash.add(static_cast<std::uint64_t>(result.status));
  hash.add(static_cast<std::uint64_t>(result.iterations));
  hash.add(result.objective);
  hash.add(result.x);
}

// {seed, FNV-1a of every result's status, iterations, objective and x}.
constexpr std::pair<std::uint64_t, std::uint64_t> kSimplexGolden[] = {
    {1, 0x00c45fc2c11b3dafULL},
    {2, 0x6aca7bad2c0ce06fULL},
    {3, 0x74598f61606056aaULL},
    {5, 0x06d851e78819f768ULL},
    {8, 0xba2349826d0b37dfULL},
    {13, 0x279dad404eb36397ULL},
    {21, 0xa00431274c689465ULL},
    {34, 0x3fd36ed9adf60a5dULL},
};

TEST(ViewLpBits, RandomMixedSenseLpsMatchTheRecordedBits) {
  for (const auto& [seed, expected] : kSimplexGolden) {
    Fnv1a hash;
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      add_result(hash, solve_lp(two_var_problem(rng, 4, 0.0)));
    }
    Rng mixed_rng(seed ^ 0x5bd1e995);
    for (int trial = 0; trial < 25; ++trial) {
      auto problem = two_var_problem(mixed_rng, 3, 0.5);
      add_result(hash, solve_lp(problem));
      auto& row = problem.add_row(ConstraintSense::kGe, 0.0);
      row.vars = {0, 1};
      row.coeffs = {1.0, 1.0};
      add_result(hash, solve_lp(problem));
    }
    EXPECT_EQ(hash.value(), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mmlp
