// The view-orbit layer (core/view_class): orbits are exactly the
// classes of bit-identical view structures, they collapse on symmetric
// instances, and deduplicated averaging is bitwise equal to the
// per-agent run on *every* instance — flat or sharded, before and after
// instance edits.
#include "mmlp/core/view_class.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

bool same_entries(const std::vector<Coef>& a, const std::vector<Coef>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Coef& x, const Coef& y) {
           return x.id == y.id &&
                  std::memcmp(&x.value, &y.value, sizeof x.value) == 0;
         });
}

/// Field-by-field equality of two views' local structures: the size of
/// the local index space, the center's local index, and every resource
/// and party row (local ids and coefficient bits, in extraction order).
bool same_local_structure(const LocalView& a, const LocalView& b) {
  return a.agents.size() == b.agents.size() &&
         a.local_index(a.center) == b.local_index(b.center) &&
         a.resource_offsets == b.resource_offsets &&
         same_entries(a.resource_data, b.resource_data) &&
         a.party_offsets == b.party_offsets &&
         same_entries(a.party_data, b.party_data);
}

/// The orbit key format, written out independently of view_class.cpp:
/// local agent count, the center's local index, the resource and party
/// row counts, then every row as its length and (local id, coefficient
/// bits) pairs, all in native byte order.
std::string serialized_view(const LocalView& view) {
  std::string key;
  const auto put = [&key](const auto value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  put(static_cast<std::int32_t>(view.agents.size()));
  put(view.local_index(view.center));
  put(static_cast<std::int32_t>(view.resources.size()));
  put(static_cast<std::int32_t>(view.parties.size()));
  for (std::size_t r = 0; r < view.resources.size(); ++r) {
    put(static_cast<std::int32_t>(view.resource_entries(r).size()));
    for (const Coef& entry : view.resource_entries(r)) {
      put(entry.id);
      put(entry.value);
    }
  }
  for (std::size_t k = 0; k < view.parties.size(); ++k) {
    put(static_cast<std::int32_t>(view.party_entries(k).size()));
    for (const Coef& entry : view.party_entries(k)) {
      put(entry.id);
      put(entry.value);
    }
  }
  return key;
}

/// Every agent has an orbit, the sizes sum to n, every representative is
/// its orbit's smallest member, and every key is its representative's
/// serialized view.
void expect_well_formed(const Instance& instance,
                        const std::vector<std::vector<AgentId>>& balls,
                        const ViewClassIndex& index) {
  ASSERT_EQ(index.num_agents(), balls.size());
  ASSERT_EQ(index.orbit_size.size(), index.num_orbits());
  ASSERT_EQ(index.orbit_key.size(), index.num_orbits());
  std::vector<AgentId> smallest(index.num_orbits(), -1);
  for (std::size_t u = 0; u < index.num_agents(); ++u) {
    const std::int32_t orbit = index.orbit_of[u];
    ASSERT_GE(orbit, 0) << "agent " << u;
    ASSERT_LT(static_cast<std::size_t>(orbit), index.num_orbits()) << u;
    if (smallest[static_cast<std::size_t>(orbit)] < 0) {
      smallest[static_cast<std::size_t>(orbit)] = static_cast<AgentId>(u);
    }
  }
  EXPECT_EQ(smallest, index.orbit_rep);
  std::int64_t total = 0;
  for (std::size_t g = 0; g < index.num_orbits(); ++g) {
    total += index.orbit_size[g];
    const AgentId rep = index.orbit_rep[g];
    EXPECT_EQ(index.orbit_key[g],
              serialized_view(extract_view(
                  instance, rep, index.radius,
                  balls[static_cast<std::size_t>(rep)])))
        << "orbit " << g;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(index.num_agents()));
}

void expect_same_index(const ViewClassIndex& a, const ViewClassIndex& b) {
  EXPECT_EQ(a.radius, b.radius);
  EXPECT_EQ(a.collaboration_oblivious, b.collaboration_oblivious);
  EXPECT_EQ(a.orbit_of, b.orbit_of);
  EXPECT_EQ(a.orbit_rep, b.orbit_rep);
  EXPECT_EQ(a.orbit_size, b.orbit_size);
  EXPECT_EQ(a.orbit_key, b.orbit_key);
}

/// The dedup_sharded benchmark shape at small n: a unit grid torus with
/// a few seed-placed coefficient defects, so most views coincide and
/// the ones around each defect do not.
Instance defect_torus(std::int32_t side, std::int32_t defects,
                      std::uint64_t seed) {
  Instance instance =
      make_grid_instance({.dims = {side, side}, .torus = true, .seed = seed});
  Rng rng(seed);
  std::vector<std::pair<ResourceId, AgentId>> picked;
  InstanceDelta delta;
  while (picked.size() < static_cast<std::size_t>(defects)) {
    const auto i = static_cast<ResourceId>(
        rng.next_below(static_cast<std::uint64_t>(instance.num_resources())));
    const CoefSpan support = instance.resource_support(i);
    const AgentId v =
        support[static_cast<std::size_t>(rng.next_below(support.size()))].id;
    if (std::find(picked.begin(), picked.end(), std::pair{i, v}) ==
        picked.end()) {
      picked.emplace_back(i, v);
      delta.set_usage(i, v, rng.uniform(0.5, 1.5));
    }
  }
  instance.apply(delta);
  return instance;
}

TEST(ViewClassIndex, GridTorusCollapsesToFewOrbits) {
  const Instance instance =
      make_grid_instance({.dims = {20, 20}, .torus = true});
  engine::Session session(instance);
  const ViewClassIndex& index = session.view_classes(1, false);
  ASSERT_EQ(index.num_agents(), 400u);
  // A uniform torus is vertex-transitive, but the exact orbits split by
  // the sorted-global-id ordering patterns near the wrap — into a
  // side-independent number of categories (measured: 49 for the R=1
  // von-Neumann structure), so the dedup ratio approaches 1 as the
  // torus grows.
  EXPECT_LE(index.num_orbits(), 64u);
  EXPECT_GE(index.dedup_ratio(), 0.85);
  // Orbit structure: sizes sum to n, representatives are members.
  std::int64_t total = 0;
  for (const std::int32_t size : index.orbit_size) {
    total += size;
  }
  EXPECT_EQ(total, 400);
  for (std::size_t g = 0; g < index.num_orbits(); ++g) {
    EXPECT_EQ(index.orbit_of[static_cast<std::size_t>(index.orbit_rep[g])],
              static_cast<std::int32_t>(g));
  }
}

TEST(ViewClassIndex, OrbitCountIsSideIndependentOnTori) {
  // The wrap-ordering orbit categories do not multiply with the torus
  // size — the lever behind the 1e5-agent dedup ratio in BENCH_engine.
  std::size_t orbits_small = 0;
  std::size_t orbits_large = 0;
  {
    const Instance instance =
        make_grid_instance({.dims = {12, 12}, .torus = true});
    engine::Session session(instance);
    orbits_small = session.view_classes(1, false).num_orbits();
  }
  {
    const Instance instance =
        make_grid_instance({.dims = {24, 24}, .torus = true});
    engine::Session session(instance);
    orbits_large = session.view_classes(1, false).num_orbits();
  }
  EXPECT_EQ(orbits_small, orbits_large);
}

// The orbits are exactly the distinct extracted views: numbering the
// distinct local structures by first appearance (compared field by
// field, without the serialized key) reproduces orbit_of, so the orbit
// count equals the number of distinct views.
TEST(ViewClassIndex, OrbitsAreExactlyTheDistinctViews) {
  std::vector<std::pair<const char*, Instance>> instances;
  instances.emplace_back("defect-torus", defect_torus(12, 4, 1));
  instances.emplace_back("defect-torus-2", defect_torus(10, 3, 2));
  // 10^4 agents: the build serializes and groups them in three blocks.
  instances.emplace_back("defect-torus-100", defect_torus(100, 8, 5));
  instances.emplace_back("random",
                         make_random_instance({.num_agents = 60, .seed = 3}));
  for (const auto& [name, instance] : instances) {
    engine::Session session(instance);
    for (const std::int32_t radius : {1, 2}) {
      const ViewClassIndex& index = session.view_classes(radius, false);
      const auto& balls = session.balls(radius, false);
      std::vector<LocalView> distinct;
      for (std::size_t u = 0; u < balls.size(); ++u) {
        const LocalView view =
            extract_view(instance, static_cast<AgentId>(u), radius, balls[u]);
        const auto match =
            std::find_if(distinct.begin(), distinct.end(),
                         [&](const LocalView& seen) {
                           return same_local_structure(seen, view);
                         });
        const auto id = static_cast<std::int32_t>(match - distinct.begin());
        if (match == distinct.end()) {
          distinct.push_back(view);
        }
        EXPECT_EQ(index.orbit_of[u], id) << name << " R=" << radius << " u=" << u;
      }
      EXPECT_EQ(index.num_orbits(), distinct.size()) << name << " R=" << radius;
      if (radius == 1 && std::string(name) != "random") {
        EXPECT_LT(index.num_orbits(), balls.size()) << name;  // dedup engages
      }
    }
  }
}

// Members of one orbit carry bit-identical local structures (the basis
// of the bitwise dedup guarantee).
TEST(ViewClassIndex, OrbitMembersShareExactStructure) {
  const Instance instance = make_grid_instance({.dims = {9, 9}, .torus = false});
  engine::Session session(instance);
  const ViewClassIndex& index = session.view_classes(1, false);
  const auto& balls = session.balls(1, false);
  for (std::size_t u = 0; u < index.num_agents(); ++u) {
    const AgentId rep =
        index.orbit_rep[static_cast<std::size_t>(index.orbit_of[u])];
    const LocalView member_view =
        extract_view(instance, static_cast<AgentId>(u), 1, balls[u]);
    const LocalView rep_view = extract_view(
        instance, rep, 1, balls[static_cast<std::size_t>(rep)]);
    EXPECT_TRUE(same_local_structure(member_view, rep_view)) << "agent " << u;
  }
}

// Const- and mutable-bound sessions build the same index, field for
// field: every index keeps one key per orbit and is repairable, so there
// is no second build mode for sessions that can apply() deltas.
TEST(ViewClassIndex, ConstAndMutableSessionsBuildEqualIndexes) {
  for (const Instance& instance :
       {make_grid_instance({.dims = {8, 8}, .torus = true}),
        make_random_instance({.num_agents = 40, .seed = 11})}) {
    Instance working = instance;
    engine::Session const_bound(instance);
    engine::Session mutable_bound(working);
    for (const std::int32_t radius : {1, 2}) {
      for (const bool oblivious : {false, true}) {
        const ViewClassIndex& a = const_bound.view_classes(radius, oblivious);
        const ViewClassIndex& b = mutable_bound.view_classes(radius, oblivious);
        expect_same_index(a, b);
        EXPECT_EQ(a.orbit_key.size(), a.num_orbits());
      }
    }
  }
}

// The build and the repair serialize the dirty agents in blocks of a few
// thousand and group each block before the next one. On a 10^4-agent
// torus both must cross block boundaries: the build (every agent dirty)
// and a repair whose dirty set holds every even agent plus the dirty
// ball of edits at both sides of a boundary, so clean agents lie between
// the last dirty agent of one block and the first of the next. The
// repair must equal a rebuild field for field.
TEST(ViewClassIndex, BuildAndRepairAcrossBlockBoundaries) {
  Instance working = defect_torus(100, 8, 5);
  engine::Session session(working);
  const std::vector<std::vector<AgentId>>& balls = session.balls(1, false);
  ViewClassIndex index = build_view_class_index(working, balls, 1, false);
  expect_well_formed(working, balls, index);
  expect_same_index(index, session.view_classes(1, false));
  const std::size_t orbits_before = index.num_orbits();

  // Every even agent is listed, plus the dirty ball of value edits around
  // agent 8191 (the touched set is the edited resources' supports), so the
  // first two blocks of dirty agents meet near there with clean agents
  // between them, and the edited ball lies on both sides of the boundary.
  InstanceDelta delta;
  std::vector<AgentId> touched;
  for (const AgentId v : {AgentId{8190}, AgentId{8191}, AgentId{8193}}) {
    const Coef& entry = working.agent_resources(v).front();
    delta.set_usage(entry.id, v, entry.value * 1.75);
    for (const Coef& member : working.resource_support(entry.id)) {
      touched.push_back(member.id);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const std::vector<AgentId> edited =
      multi_source_ball(working.communication_graph(false), touched, 1);
  session.apply(delta);
  std::vector<AgentId> dirty = edited;
  for (AgentId u = 0; u < working.num_agents(); u += 2) {
    dirty.push_back(u);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  ASSERT_GT(dirty.size(), 4096u);
  ASSERT_LT(dirty[4095] + 1, dirty[4096]);
  ASSERT_LT(edited.front(), dirty[4095]);
  ASSERT_GT(edited.back(), dirty[4096]);

  repair_view_class_index(working, balls, dirty, index);
  expect_well_formed(working, balls, index);
  expect_same_index(index, build_view_class_index(working, balls, 1, false));
  expect_same_index(index, session.view_classes(1, false));
  EXPECT_GT(index.num_orbits(), orbits_before);  // the edits split orbits
}

// A dirty list must be strictly ascending ids in [0, n): a repeated id
// would stall the merge and leave later dirty agents under stale keys,
// an id >= n would read past the ball cache. Both are refused before the
// index is touched.
TEST(ViewClassIndex, RepairRejectsMalformedDirtySets) {
  Instance working = make_grid_instance({.dims = {10, 10}, .torus = true});
  const std::vector<std::vector<AgentId>> balls =
      all_balls(working.communication_graph(false), 1);
  ViewClassIndex index = build_view_class_index(working, balls, 1, false);
  InstanceDelta delta;
  const Coef& entry = working.agent_resources(55).front();
  delta.set_usage(entry.id, 55, entry.value * 1.5);
  working.apply(delta);
  const ViewClassIndex before = index;

  std::vector<AgentId> every(100);
  std::iota(every.begin(), every.end(), AgentId{0});
  std::vector<AgentId> repeated = every;
  repeated.insert(repeated.begin(), AgentId{0});
  EXPECT_THROW(repair_view_class_index(working, balls, repeated, index),
               CheckError);
  std::vector<AgentId> past_end = every;
  past_end.push_back(100);
  EXPECT_THROW(repair_view_class_index(working, balls, past_end, index),
               CheckError);
  std::vector<AgentId> negative = every;
  negative.front() = -1;
  EXPECT_THROW(repair_view_class_index(working, balls, negative, index),
               CheckError);
  expect_same_index(index, before);

  repair_view_class_index(working, balls, every, index);
  expect_same_index(index, build_view_class_index(working, balls, 1, false));
}

// The headline contract: deduplicated averaging is bitwise equal to the
// per-agent run — on symmetric *and* unstructured instances (orbit
// members share byte-identical LPs, and the deterministic simplex maps
// identical input to identical output).
TEST(DedupAveraging, BitwiseEqualEverywhere) {
  std::vector<std::pair<const char*, Instance>> instances;
  instances.emplace_back(
      "grid", make_grid_instance({.dims = {7, 7}, .torus = false}));
  instances.emplace_back(
      "torus", make_grid_instance({.dims = {8, 8}, .torus = true}));
  instances.emplace_back("random",
                         make_random_instance({.num_agents = 60, .seed = 11}));
  instances.emplace_back("path", testing::path_instance(12));
  for (const auto& [name, instance] : instances) {
    for (const std::int32_t R : {1, 2}) {
      engine::Session session(instance);
      const LocalAveragingResult off =
          local_averaging_with(session, {.R = R});
      const LocalAveragingResult on =
          local_averaging_with(session, {.R = R, .deduplicate = true});
      EXPECT_EQ(on.x, off.x) << name << " R=" << R;
      EXPECT_EQ(on.view_omega, off.view_omega) << name << " R=" << R;
      EXPECT_EQ(on.beta, off.beta) << name << " R=" << R;
      EXPECT_EQ(on.lp_solves, session.view_classes(R, false).num_orbits())
          << name << " R=" << R;
      EXPECT_LE(on.lp_solves, off.lp_solves) << name << " R=" << R;
    }
  }
}

TEST(DedupAveraging, SingletonOrbitsFallBackToPerAgentSolves) {
  // A random instance with large supports has essentially no view
  // symmetry: dedup must degrade to ~per-agent solves and still match.
  const Instance instance = make_random_instance({
      .num_agents = 40,
      .resources_per_agent = 3,
      .parties_per_agent = 2,
      .max_support = 5,
      .seed = 29,
  });
  engine::Session session(instance);
  const LocalAveragingResult off = local_averaging_with(session, {.R = 1});
  const LocalAveragingResult on =
      local_averaging_with(session, {.R = 1, .deduplicate = true});
  EXPECT_EQ(on.x, off.x);
  EXPECT_EQ(on.lp_solves, session.view_classes(1, false).num_orbits());
  EXPECT_LE(on.lp_solves, 40u);
}

// Dedup averaging on the defect torus, on a flat Session and on a
// 2-shard ShardedSession, bitwise equal to the non-dedup solve — before
// and after value edits routed through apply(), which repair the
// cached orbit partitions instead of rebuilding them.
TEST(DedupAveraging, DefectTorusBitwiseOnSessionAndShardsAcrossEdits) {
  const Instance original = defect_torus(12, 4, 7);
  Instance flat_instance = original;
  Instance sharded_instance = original;
  engine::Session flat(flat_instance);
  engine::ShardedSession sharded(
      sharded_instance, engine::ShardedOptions{.shards = 2, .halo_radius = 3});
  const engine::SolveRequest plain{.algorithm = "averaging", .R = 1};
  engine::SolveRequest dedup = plain;
  dedup.deduplicate = true;

  const auto check = [&](const std::string& label) {
    const engine::SolveResult reference = engine::solve(flat, plain);
    const engine::SolveResult flat_dedup = engine::solve(flat, dedup);
    EXPECT_EQ(flat_dedup.x, reference.x) << label;
    EXPECT_EQ(flat_dedup.party_benefit, reference.party_benefit) << label;
    EXPECT_LT(flat_dedup.diagnostics.at("lp_solves"),
              reference.diagnostics.at("lp_solves"))
        << label;
    EXPECT_GT(flat_dedup.diagnostics.at("dedup_ratio"), 0.0) << label;
    EXPECT_EQ(sharded.solve(dedup).x, reference.x) << label;
    EXPECT_EQ(sharded.solve(plain).x, reference.x) << label;
  };
  check("before edits");

  Rng rng(99);
  for (int round = 0; round < 3; ++round) {
    InstanceDelta delta;
    for (int edit = 0; edit < 2; ++edit) {
      const auto i = static_cast<ResourceId>(rng.next_below(
          static_cast<std::uint64_t>(flat_instance.num_resources())));
      const Coef& entry = flat_instance.resource_support(i).front();
      delta.set_usage(i, entry.id, entry.value * rng.uniform(0.5, 1.5));
    }
    const engine::Session::ApplyReport report = flat.apply(delta);
    EXPECT_FALSE(report.rebuilt);
    EXPECT_FALSE(sharded.apply(delta).rebuilt);
    check("after edit round " + std::to_string(round));
  }
  // And a cold solve of the mutated instance agrees with both.
  engine::Session cold(sharded_instance);
  EXPECT_EQ(engine::solve(cold, plain).x, sharded.solve(dedup).x);
}

TEST(DedupAveraging, ObliviousModeMatchesToo) {
  const Instance instance = make_random_instance({.num_agents = 50, .seed = 13});
  engine::Session session(instance);
  const LocalAveragingResult off = local_averaging_with(
      session, {.R = 1, .collaboration_oblivious = true});
  const LocalAveragingResult on = local_averaging_with(
      session,
      {.R = 1, .collaboration_oblivious = true, .deduplicate = true});
  EXPECT_EQ(on.x, off.x);
}

}  // namespace
}  // namespace mmlp
