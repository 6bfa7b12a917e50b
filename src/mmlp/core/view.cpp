// View extraction (Section 5, Figure 2) tuned for the one-view-per-agent
// hot loop: extract_view_into scatters B_H(u,R) into a persistent
// global→local stamp map (all −1 between calls, reset via the ball
// itself), so membership tests V^u_i = V_i ∩ V^u and K^u ⊆-tests are
// O(1) per support entry, and every buffer — id lists, CSR entry arrays,
// the LP rows, the simplex tableau — is reused across agents. The
// candidate id lists are deduplicated by rank (dedupe_ids below): a few
// dozen ids per view, whose sort+unique cost mostly branch mispredicts.
#include "mmlp/core/view.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/stamp_guard.hpp"

namespace mmlp {

std::int32_t LocalView::local_index(AgentId global) const {
  const auto it = std::lower_bound(agents.begin(), agents.end(), global);
  if (it != agents.end() && *it == global) {
    return static_cast<std::int32_t>(it - agents.begin());
  }
  return -1;
}

void LocalView::clear() {
  center = -1;
  radius = 0;
  agents.clear();
  resources.clear();
  parties.clear();
  resource_offsets.assign(1, 0);
  resource_data.clear();
  party_offsets.assign(1, 0);
  party_data.clear();
}

namespace {

// Above this many candidate ids std::sort + std::unique is kept. Where
// rank wins depends on how well sort's branches predict (x86-64, -O3):
// on lists from random supports rank wins 3.6x at 48 ids and 2.8x at
// 64 (0.88 vs 2.5 µs); on the 2D torus every view's 65 ids repeat one
// pattern, sort predicts well and wins 1.9x (0.45 vs 0.85 µs), and
// extracting with rank there read 1.6 → 2.9 µs per view. 64 keeps rank
// on the views it was measured to win and sort on the torus.
constexpr std::size_t kRankDedupeMaxIds = 64;

/// Sort `ids` (all >= 0) ascending and drop duplicates. Short lists go
/// by rank: an id's rank is the number of smaller ids, so every copy of
/// an id lands on the same slot of `slots` and the untouched slots
/// (still −1) are compacted away. Both loops are free of data-dependent
/// branches, which is the point: sorting a few dozen ids spends most of
/// its time on mispredicted comparisons.
void dedupe_ids(std::vector<std::int32_t>& ids, std::vector<std::int32_t>& slots) {
  const std::size_t n = ids.size();
  if (n > kRankDedupeMaxIds) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return;
  }
  slots.assign(n, -1);
  const std::int32_t* const id_data = ids.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t id = id_data[i];
    std::int32_t rank = 0;  // 32-bit lanes: the count vectorises
    for (std::size_t j = 0; j < n; ++j) {
      rank += id_data[j] < id ? 1 : 0;
    }
    slots[static_cast<std::size_t>(rank)] = id;
  }
  std::size_t kept = 0;
  for (const std::int32_t slot : slots) {
    ids[kept] = slot;
    kept += slot >= 0 ? 1 : 0;
  }
  ids.resize(kept);
}

}  // namespace

void extract_view_into(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u, LocalView& view,
                       ViewScratch& scratch) {
  MMLP_CHECK(std::is_sorted(ball_of_u.begin(), ball_of_u.end()));
  view.clear();
  view.center = u;
  view.radius = radius;
  view.agents.assign(ball_of_u.begin(), ball_of_u.end());

  // Persistent global→local map: −1 outside the current ball. Lazily
  // sized once per instance; reset below by walking the ball again.
  auto& local_of = scratch.agent_local;
  if (local_of.size() < static_cast<std::size_t>(instance.num_agents())) {
    local_of.assign(static_cast<std::size_t>(instance.num_agents()), -1);
  }
  bool center_seen = false;
  for (const AgentId v : view.agents) {
    MMLP_CHECK_MSG(v >= 0 && v < instance.num_agents(),
                   "ball of agent " << u << " contains invalid agent " << v);
    center_seen = center_seen || v == u;
  }
  MMLP_CHECK_MSG(center_seen, "ball of agent " << u << " does not contain it");
  // All ids validated; stamp under a guard so a CheckError below cannot
  // leave the persistent map dirty for the next extraction.
  const StampGuard guard(local_of, view.agents);
  for (std::size_t idx = 0; idx < view.agents.size(); ++idx) {
    local_of[static_cast<std::size_t>(view.agents[idx])] =
        static_cast<std::int32_t>(idx);
  }

  // I^u and the party candidates: ids touching any view agent, sorted
  // and deduplicated.
  auto& resource_ids = scratch.resource_ids;
  auto& party_ids = scratch.party_ids;
  resource_ids.clear();
  party_ids.clear();
  for (const AgentId v : view.agents) {
    for (const Coef& entry : instance.agent_resources(v)) {
      resource_ids.push_back(entry.id);
    }
    for (const Coef& entry : instance.agent_parties(v)) {
      party_ids.push_back(entry.id);
    }
  }
  dedupe_ids(resource_ids, scratch.id_slots);
  dedupe_ids(party_ids, scratch.id_slots);

  for (const ResourceId i : resource_ids) {
    const auto start = view.resource_data.size();
    for (const Coef& entry : instance.resource_support(i)) {
      const std::int32_t local = local_of[static_cast<std::size_t>(entry.id)];
      if (local >= 0) {
        view.resource_data.push_back({local, entry.value});
      }
    }
    MMLP_CHECK(view.resource_data.size() > start);  // i came from a view agent
    view.resources.push_back(i);
    view.resource_offsets.push_back(
        static_cast<std::int32_t>(view.resource_data.size()));
  }

  // K^u keeps only fully visible parties: collect entries in one pass and
  // roll back when a member falls outside the ball.
  for (const PartyId k : party_ids) {
    const auto start = view.party_data.size();
    bool full = true;
    for (const Coef& entry : instance.party_support(k)) {
      const std::int32_t local = local_of[static_cast<std::size_t>(entry.id)];
      if (local < 0) {
        full = false;
        break;
      }
      view.party_data.push_back({local, entry.value});
    }
    if (!full) {
      view.party_data.resize(start);
      continue;
    }
    view.parties.push_back(k);
    view.party_offsets.push_back(
        static_cast<std::int32_t>(view.party_data.size()));
  }
  // The StampGuard restores the all-−1 invariant on every exit path.
}

LocalView extract_view(const Instance& instance, AgentId u, std::int32_t radius,
                       const std::vector<AgentId>& ball_of_u) {
  LocalView view;
  ViewScratch scratch;
  extract_view_into(instance, u, radius, ball_of_u, view, scratch);
  return view;
}

LocalView extract_view(const Instance& instance, const Hypergraph& h, AgentId u,
                       std::int32_t radius) {
  return extract_view(instance, u, radius, ball(h, u, radius));
}

void view_lp_into(const LocalView& view, LpProblem& out) {
  const auto num_agents = static_cast<std::int32_t>(view.agents.size());
  out.num_vars = num_agents + 1;  // x^u plus ω^u
  out.objective.assign(static_cast<std::size_t>(out.num_vars), 0.0);
  out.objective.back() = 1.0;

  const std::size_t num_rows = view.resources.size() + view.parties.size();
  if (out.rows.size() > num_rows) {
    out.rows.resize(num_rows);
  }
  while (out.rows.size() < num_rows) {
    out.rows.emplace_back();
  }

  std::size_t row_idx = 0;
  for (std::size_t r = 0; r < view.resources.size(); ++r, ++row_idx) {
    LpRow& row = out.rows[row_idx];
    row.vars.clear();
    row.coeffs.clear();
    row.sense = ConstraintSense::kLe;
    row.rhs = 1.0;
    for (const Coef& entry : view.resource_entries(r)) {
      row.vars.push_back(entry.id);
      row.coeffs.push_back(entry.value);
    }
  }
  for (std::size_t p = 0; p < view.parties.size(); ++p, ++row_idx) {
    LpRow& row = out.rows[row_idx];
    row.vars.clear();
    row.coeffs.clear();
    row.sense = ConstraintSense::kGe;
    row.rhs = 0.0;
    for (const Coef& entry : view.party_entries(p)) {
      row.vars.push_back(entry.id);
      row.coeffs.push_back(entry.value);
    }
    row.vars.push_back(num_agents);
    row.coeffs.push_back(-1.0);
  }
}

LpProblem view_lp(const LocalView& view) {
  LpProblem problem;
  view_lp_into(view, problem);
  return problem;
}

namespace {

ViewLpSolution solve_view_lp_impl(const LocalView& view, const LpProblem& lp_problem,
                                  const SimplexOptions& options,
                                  SimplexWorkspace* workspace) {
  ViewLpSolution solution;
  const LpResult lp = workspace != nullptr
                          ? solve_lp(lp_problem, options, *workspace)
                          : solve_lp(lp_problem, options);
  MMLP_CHECK_MSG(lp.status == LpStatus::kOptimal,
                 "view LP for agent " << view.center << " returned "
                                      << to_string(lp.status));
  solution.status = lp.status;
  solution.omega = lp.objective;
  solution.x.assign(lp.x.begin(),
                    lp.x.begin() + static_cast<std::ptrdiff_t>(view.agents.size()));
  return solution;
}

}  // namespace

ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options) {
  if (view.parties.empty()) {
    ViewLpSolution solution;
    solution.x.assign(view.agents.size(), 0.0);
    return solution;
  }
  return solve_view_lp_impl(view, view_lp(view), options, nullptr);
}

ViewLpSolution solve_view_lp(const LocalView& view,
                             const SimplexOptions& options,
                             ViewScratch& scratch) {
  if (view.parties.empty()) {
    ViewLpSolution solution;
    solution.x.assign(view.agents.size(), 0.0);
    return solution;
  }
  view_lp_into(view, scratch.lp);
  return solve_view_lp_impl(view, scratch.lp, options, &scratch.simplex);
}

double GrowthSets::max_party_ratio() const {
  double worst = 1.0;
  for (std::size_t k = 0; k < m_k.size(); ++k) {
    if (m_k[k] == 0) {
      // Possible only in collaboration-oblivious mode (V_k need not be a
      // clique of H there); the benefit bound degenerates.
      return std::numeric_limits<double>::infinity();
    }
    worst = std::max(worst, static_cast<double>(M_k[k]) /
                                static_cast<double>(m_k[k]));
  }
  return worst;
}

double GrowthSets::max_resource_ratio() const {
  double worst = 1.0;
  for (std::size_t i = 0; i < N_i.size(); ++i) {
    MMLP_CHECK_GT(n_i[i], 0u);
    worst = std::max(worst, static_cast<double>(N_i[i]) /
                                static_cast<double>(n_i[i]));
  }
  return worst;
}

GrowthSets compute_growth_sets(const Instance& instance,
                               const std::vector<std::vector<AgentId>>& balls) {
  // Every agent dirty on empty sets: each row and each β_j is computed,
  // so an agent without resources gets β = +∞ as the min over nothing.
  std::vector<AgentId> every(static_cast<std::size_t>(instance.num_agents()));
  std::iota(every.begin(), every.end(), AgentId{0});
  GrowthSets sets;
  repair_growth_sets(instance, balls, every, sets);
  return sets;
}

void repair_growth_sets(const Instance& instance,
                        const std::vector<std::vector<AgentId>>& balls,
                        std::span<const AgentId> dirty, GrowthSets& sets) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  MMLP_CHECK_EQ(balls.size(), n);
  const std::size_t old_parties = sets.m_k.size();
  const std::size_t old_resources = sets.N_i.size();
  MMLP_CHECK_MSG(sets.ball_size.size() <= n &&
                     old_parties <= static_cast<std::size_t>(instance.num_parties()) &&
                     old_resources <= static_cast<std::size_t>(instance.num_resources()),
                 "repair_growth_sets: cached sets are larger than the "
                 "instance (entity removal needs a full recompute)");

  std::vector<char> is_dirty(n, 0);
  for (const AgentId d : dirty) {
    MMLP_CHECK_GE(d, 0);
    MMLP_CHECK_LT(static_cast<std::size_t>(d), n);
    is_dirty[static_cast<std::size_t>(d)] = 1;
  }
  sets.ball_size.resize(n);
  for (const AgentId d : dirty) {
    sets.ball_size[static_cast<std::size_t>(d)] =
        balls[static_cast<std::size_t>(d)].size();
  }

  // Scratch for the running intersections/unions, hoisted out of the
  // per-row loops (the sets are small; the allocations were the cost).
  std::vector<AgentId> current;
  std::vector<AgentId> next;

  // Parties: S_k = ∩_{j∈V_k} V^j (sorted-list intersection), M_k = max |V^j|.
  sets.m_k.resize(static_cast<std::size_t>(instance.num_parties()));
  sets.M_k.resize(static_cast<std::size_t>(instance.num_parties()));
  for (PartyId k = 0; k < instance.num_parties(); ++k) {
    const CoefSpan support = instance.party_support(k);
    bool affected = static_cast<std::size_t>(k) >= old_parties;
    for (const Coef& entry : support) {
      affected = affected || is_dirty[static_cast<std::size_t>(entry.id)] != 0;
    }
    if (!affected) {
      continue;
    }
    const auto& first_ball = balls[static_cast<std::size_t>(support.front().id)];
    current.assign(first_ball.begin(), first_ball.end());
    std::size_t max_ball = 0;
    for (const Coef& entry : support) {
      const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
      max_ball = std::max(max_ball, ball_j.size());
      next.clear();
      std::set_intersection(current.begin(), current.end(), ball_j.begin(),
                            ball_j.end(), std::back_inserter(next));
      current.swap(next);
    }
    sets.m_k[static_cast<std::size_t>(k)] = current.size();
    sets.M_k[static_cast<std::size_t>(k)] = max_ball;
  }

  // Resources: U_i = ∪_{j∈V_i} V^j, n_i = min |V^j|.
  sets.N_i.resize(static_cast<std::size_t>(instance.num_resources()));
  sets.n_i.resize(static_cast<std::size_t>(instance.num_resources()));
  std::vector<char> beta_dirty = is_dirty;  // covers I_v changes
  for (ResourceId i = 0; i < instance.num_resources(); ++i) {
    const CoefSpan support = instance.resource_support(i);
    bool affected = static_cast<std::size_t>(i) >= old_resources;
    for (const Coef& entry : support) {
      affected = affected || is_dirty[static_cast<std::size_t>(entry.id)] != 0;
    }
    if (!affected) {
      continue;
    }
    current.clear();
    std::size_t min_ball = std::numeric_limits<std::size_t>::max();
    for (const Coef& entry : support) {
      const auto& ball_j = balls[static_cast<std::size_t>(entry.id)];
      min_ball = std::min(min_ball, ball_j.size());
      next.clear();
      std::set_union(current.begin(), current.end(), ball_j.begin(),
                     ball_j.end(), std::back_inserter(next));
      current.swap(next);
    }
    sets.N_i[static_cast<std::size_t>(i)] = current.size();
    sets.n_i[static_cast<std::size_t>(i)] = min_ball;
    // n_i/N_i moved: every member's β_j reads them.
    for (const Coef& entry : support) {
      beta_dirty[static_cast<std::size_t>(entry.id)] = 1;
    }
  }

  // β_j = min_{i∈I_j} n_i / N_i.
  sets.beta.resize(n, 1.0);
  for (AgentId j = 0; j < instance.num_agents(); ++j) {
    if (beta_dirty[static_cast<std::size_t>(j)] == 0) {
      continue;
    }
    double beta = std::numeric_limits<double>::infinity();
    for (const Coef& entry : instance.agent_resources(j)) {
      const auto i = static_cast<std::size_t>(entry.id);
      beta = std::min(beta, static_cast<double>(sets.n_i[i]) /
                                static_cast<double>(sets.N_i[i]));
    }
    sets.beta[static_cast<std::size_t>(j)] = beta;
  }

  sets.ratio_bound = sets.max_party_ratio() * sets.max_resource_ratio();
  sets.peak_ball =
      sets.ball_size.empty() ? 0 : std::ranges::max(sets.ball_size);
}

}  // namespace mmlp
