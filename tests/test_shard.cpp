// Sharded solving: the partition/halo/stitch layer and its equality bar.
//
// The differential harness at the bottom is the PR's proof obligation:
// for every (scenario × algorithm × radius × dedup × shard count) cell,
// a ShardedSession solve must be *bitwise* equal to the same request on
// a flat Session — solution vector, ω, feasibility, and per-party
// benefits compared with ==, not tolerances. Delta routing gets the
// same bar: value edits, boundary-crossing agent adds and removals are
// applied to both sides and the re-solves (incremental where eligible)
// must stay identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/graph/hypertree.hpp"
#include "mmlp/shard/extract.hpp"
#include "mmlp/shard/partition.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace mmlp {
namespace {

using engine::Session;
using engine::ShardedOptions;
using engine::ShardedSession;
using engine::SolveRequest;
using engine::SolveResult;

// The same hypertree shape test_engine uses: type I hyperedges become
// unit resources, type II hyperedges parties with 1/D benefits.
Instance make_hypertree_instance(std::int32_t d, std::int32_t D,
                                 std::int32_t height) {
  const Hypertree tree = Hypertree::complete(d, D, height);
  Instance::Builder builder;
  for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
    builder.add_agent();
  }
  for (const HypertreeEdge& edge : tree.edges()) {
    if (edge.type == HyperedgeType::kTypeI) {
      const ResourceId i = builder.add_resource();
      builder.set_usage(i, edge.parent, 1.0);
      for (const std::int32_t child : edge.children) {
        builder.set_usage(i, child, 1.0);
      }
    } else {
      const PartyId k = builder.add_party();
      builder.set_benefit(k, edge.parent, 1.0 / static_cast<double>(D));
      for (const std::int32_t child : edge.children) {
        builder.set_benefit(k, child, 1.0 / static_cast<double>(D));
      }
    }
  }
  return std::move(builder).build();
}

struct Scenario {
  std::string name;
  Instance instance;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> result;
  result.push_back({"grid", make_grid_instance({.dims = {8, 8},
                                                .torus = true,
                                                .randomize = true,
                                                .seed = 3})});
  result.push_back({"random", make_random_instance({
                                  .num_agents = 80,
                                  .resources_per_agent = 3,
                                  .parties_per_agent = 2,
                                  .max_support = 4,
                                  .seed = 9,
                              })});
  result.push_back({"hypertree", make_hypertree_instance(2, 2, 3)});
  return result;
}

/// Bitwise equality of everything a stitched result promises.
void expect_bitwise_equal(const SolveResult& flat, const SolveResult& sharded,
                          const std::string& label) {
  ASSERT_EQ(flat.has_solution, sharded.has_solution) << label;
  ASSERT_EQ(flat.x.size(), sharded.x.size()) << label;
  for (std::size_t v = 0; v < flat.x.size(); ++v) {
    ASSERT_EQ(flat.x[v], sharded.x[v]) << label << " at agent " << v;
  }
  EXPECT_EQ(flat.omega, sharded.omega) << label;
  EXPECT_EQ(flat.feasible, sharded.feasible) << label;
  ASSERT_EQ(flat.party_benefit.size(), sharded.party_benefit.size()) << label;
  for (std::size_t k = 0; k < flat.party_benefit.size(); ++k) {
    ASSERT_EQ(flat.party_benefit[k], sharded.party_benefit[k])
        << label << " at party " << k;
  }
}

// ---------------------------------------------------------------------------
// Partition layer
// ---------------------------------------------------------------------------

TEST(Partition, ContiguousCoversDisjointlyAndBalances) {
  const shard::Partition partition = shard::contiguous_partition(10, 3);
  EXPECT_EQ(partition.num_shards, 3);
  partition.validate();
  std::size_t total = 0;
  for (const auto& core : partition.core) {
    EXPECT_GE(core.size(), 3u);
    EXPECT_LE(core.size(), 4u);
    total += core.size();
  }
  EXPECT_EQ(total, 10u);
  // Ranges, in order.
  EXPECT_EQ(partition.core[0].front(), 0);
  EXPECT_EQ(partition.core[2].back(), 9);
}

TEST(Partition, BfsRegionsCoverDeterministically) {
  const Instance instance = make_grid_instance({.dims = {6, 6}});
  const Hypergraph graph = instance.communication_graph(false);
  const shard::Partition a = shard::bfs_partition(graph, 4, 7);
  const shard::Partition b = shard::bfs_partition(graph, 4, 7);
  a.validate();
  EXPECT_EQ(a.shard_of, b.shard_of);  // pure function of (graph, S, seed)
  const shard::Partition c = shard::bfs_partition(graph, 4, 8);
  c.validate();  // different seed: still a valid cover
}

TEST(Partition, RejectsMoreShardsThanAgents) {
  EXPECT_THROW(shard::contiguous_partition(3, 5), CheckError);
}

TEST(Partition, StrategyNamesRoundTrip) {
  EXPECT_EQ(shard::partition_strategy_from_string("contiguous"),
            shard::PartitionStrategy::kContiguous);
  EXPECT_EQ(shard::partition_strategy_from_string("bfs"),
            shard::PartitionStrategy::kBfsRegions);
  EXPECT_THROW(shard::partition_strategy_from_string("voronoi"), CheckError);
}

// ---------------------------------------------------------------------------
// Halo extraction
// ---------------------------------------------------------------------------

TEST(ExtractShard, WholeInstanceCoreReproducesTheInstance) {
  const Instance instance = make_grid_instance({.dims = {5, 5}});
  const Hypergraph graph = instance.communication_graph(false);
  std::vector<AgentId> core(static_cast<std::size_t>(instance.num_agents()));
  for (std::size_t v = 0; v < core.size(); ++v) {
    core[v] = static_cast<AgentId>(v);
  }
  const shard::ShardInstance piece =
      shard::extract_shard(instance, graph, core, 2);
  // Identity relabeling: the sub-instance IS the instance.
  EXPECT_EQ(piece.instance, instance);
  EXPECT_EQ(piece.halo_agents(), 0u);
  EXPECT_EQ(piece.core_local, piece.core);
}

TEST(ExtractShard, MapsAreMonotoneAndRowsAreRestrictions) {
  // The random instance's halo reaches every agent; the torus's halo
  // stops short and cuts 36 parties, which the shard must drop.
  const Instance cases[] = {
      make_random_instance({
          .num_agents = 50,
          .resources_per_agent = 3,
          .parties_per_agent = 2,
          .max_support = 4,
          .seed = 11,
      }),
      make_grid_instance({.dims = {12, 12}}),
  };
  for (const Instance& instance : cases) {
    const Hypergraph graph = instance.communication_graph(false);
    const shard::Partition partition =
        shard::contiguous_partition(instance.num_agents(), 4);
    const shard::ShardInstance piece =
        shard::extract_shard(instance, graph, partition.core[1], 2);
    piece.instance.validate();
    EXPECT_TRUE(std::is_sorted(piece.agents.begin(), piece.agents.end()));
    EXPECT_TRUE(
        std::is_sorted(piece.resources.begin(), piece.resources.end()));
    EXPECT_TRUE(std::is_sorted(piece.parties.begin(), piece.parties.end()));
    EXPECT_GT(piece.halo_agents(), 0u);  // interior shard, connected graph
    // Every local resource row is the order-preserving restriction of
    // the global row to included agents.
    for (std::size_t local = 0; local < piece.resources.size(); ++local) {
      const CoefSpan global_row =
          instance.resource_support(piece.resources[local]);
      std::vector<Coef> expected;
      for (const Coef& entry : global_row) {
        const AgentId mapped = piece.local_agent(entry.id);
        if (mapped >= 0) {
          expected.push_back({mapped, entry.value});
        }
      }
      const CoefSpan local_row =
          piece.instance.resource_support(static_cast<ResourceId>(local));
      ASSERT_EQ(local_row.size(), expected.size());
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(local_row[e], expected[e]);
      }
    }
    // Every kept party row is its global row, relabelled: no member is
    // cut off, so the shard never misstates a benefit row.
    for (std::size_t local = 0; local < piece.parties.size(); ++local) {
      const CoefSpan global_row =
          instance.party_support(piece.parties[local]);
      const CoefSpan local_row =
          piece.instance.party_support(static_cast<PartyId>(local));
      ASSERT_EQ(local_row.size(), global_row.size());
      for (std::size_t e = 0; e < global_row.size(); ++e) {
        EXPECT_EQ(local_row[e],
                  (Coef{piece.local_agent(global_row[e].id),
                        global_row[e].value}));
      }
    }
    // And every global party whose support lies inside the shard is kept.
    for (PartyId k = 0; k < instance.num_parties(); ++k) {
      const CoefSpan support = instance.party_support(k);
      const bool inside = std::all_of(
          support.begin(), support.end(),
          [&](const Coef& entry) { return piece.local_agent(entry.id) >= 0; });
      EXPECT_EQ(piece.local_party(k) >= 0, inside) << "party " << k;
    }
    // The lookups agree with the maps.
    for (std::size_t local = 0; local < piece.agents.size(); ++local) {
      EXPECT_EQ(piece.local_agent(piece.agents[local]),
                static_cast<AgentId>(local));
    }
    EXPECT_EQ(piece.local_agent(instance.num_agents() - 1) >= 0,
              std::binary_search(piece.agents.begin(), piece.agents.end(),
                                 instance.num_agents() - 1));
  }
}

// ---------------------------------------------------------------------------
// The differential harness: sharded == monolithic, bitwise
// ---------------------------------------------------------------------------

TEST(ShardDifferential, MatchesMonolithicAcrossTheMatrix) {
  for (const Scenario& scenario : scenarios()) {
    for (const std::string algorithm : {"safe", "averaging"}) {
      for (const std::int32_t R : {1, 2}) {
        if (algorithm == "safe" && R == 2) {
          continue;  // safe has no radius knob
        }
        for (const bool deduplicate : {false, true}) {
          Session flat(scenario.instance);
          SolveRequest request;
          request.algorithm = algorithm;
          request.R = R;
          request.deduplicate = deduplicate;
          const SolveResult expected = engine::solve(flat, request);
          for (const std::int32_t shards : {2, 4, 7}) {
            ShardedSession sharded(
                scenario.instance,
                ShardedOptions{.shards = shards, .halo_radius = 2 * R + 1});
            const SolveResult actual = sharded.solve(request);
            const std::string label =
                scenario.name + "/" + algorithm + "/R=" + std::to_string(R) +
                "/dedup=" + std::to_string(deduplicate) +
                "/S=" + std::to_string(shards);
            expect_bitwise_equal(expected, actual, label);
            EXPECT_EQ(actual.diagnostics.at("shards"),
                      static_cast<double>(shards))
                << label;
            EXPECT_GE(actual.diagnostics.at("halo_agents"), 0.0) << label;
            if (deduplicate && algorithm == "averaging") {
              // One LP per orbit over every agent the shards serve (each
              // shard's core plus its halo).
              const double served =
                  static_cast<double>(scenario.instance.num_agents()) +
                  actual.diagnostics.at("halo_agents");
              const double ratio = actual.diagnostics.at("dedup_ratio");
              EXPECT_EQ(ratio,
                        1.0 - actual.diagnostics.at("lp_solves") / served)
                  << label;
              EXPECT_GE(ratio, 0.0) << label;
              EXPECT_LT(ratio, 1.0) << label;
            } else {
              EXPECT_EQ(actual.diagnostics.count("dedup_ratio"), 0u) << label;
            }
          }
        }
      }
    }
  }
}

TEST(ShardDifferential, DistributedSolversAndBfsPartitionMatchToo) {
  const Scenario scenario = scenarios()[0];  // grid
  for (const std::string algorithm : {"distributed-safe",
                                      "distributed-averaging"}) {
    Session flat(scenario.instance);
    SolveRequest request;
    request.algorithm = algorithm;
    request.R = 1;
    const SolveResult expected = engine::solve(flat, request);
    ShardedSession sharded(
        scenario.instance,
        ShardedOptions{.shards = 4,
                       .halo_radius = 3,
                       .strategy = shard::PartitionStrategy::kBfsRegions,
                       .seed = 5});
    expect_bitwise_equal(expected, sharded.solve(request),
                         algorithm + "/bfs-partition");
  }
}

// ---------------------------------------------------------------------------
// Delta routing
// ---------------------------------------------------------------------------

TEST(ShardDelta, ValueEditRoutesAndKeepsIncrementalWarmAndEqual) {
  for (const Scenario& scenario : scenarios()) {
    Instance flat_instance = scenario.instance;
    Instance sharded_instance = scenario.instance;
    Session flat(flat_instance);
    ShardedSession sharded(sharded_instance,
                           ShardedOptions{.shards = 4, .halo_radius = 3});

    SolveRequest request;
    request.algorithm = "averaging";
    request.R = 1;
    request.incremental = true;
    expect_bitwise_equal(engine::solve(flat, request), sharded.solve(request),
                         scenario.name + "/prime");

    // Edit an existing coefficient in the middle of the id space — on a
    // contiguous partition that lands near a shard boundary.
    const ResourceId i = flat_instance.num_resources() / 2;
    const Coef target = flat_instance.resource_support(i).front();
    InstanceDelta delta;
    delta.set_usage(i, target.id, target.value * 1.5);
    const Session::ApplyReport flat_report = flat.apply(delta);
    const Session::ApplyReport sharded_report = sharded.apply(delta);
    EXPECT_EQ(flat_report.revision, sharded_report.revision);
    EXPECT_FALSE(sharded_report.structural);
    EXPECT_GE(sharded_report.repaired_entries, 1u);  // routed, not rebuilt

    const SolveResult flat_result = engine::solve(flat, request);
    const SolveResult sharded_result = sharded.solve(request);
    expect_bitwise_equal(flat_result, sharded_result,
                         scenario.name + "/value-edit");
    // The routed delta must not have cooled the shard memos: the
    // monolithic side re-solved incrementally, the sharded side must
    // report the same (min over shards — untouched shards splice 100%).
    EXPECT_EQ(flat_result.diagnostics.at("incremental"), 1.0) << scenario.name;
    EXPECT_EQ(sharded_result.diagnostics.at("incremental"), 1.0)
        << scenario.name;
    // And a cold solve of the mutated instance agrees too.
    Session cold(sharded_instance);
    SolveRequest full = request;
    full.incremental = false;
    expect_bitwise_equal(engine::solve(cold, full), sharded_result,
                         scenario.name + "/vs-cold");
  }
}

TEST(ShardDelta, BoundaryCrossingAgentAddStaysEqual) {
  // Non-torus 16x16: a radius-3 ball around the touched vertex spans
  // only the two shards adjacent to the cut, so the "far shards stay
  // untouched" assertion below is meaningful.
  Instance flat_instance = make_grid_instance(
      {.dims = {16, 16}, .torus = false, .randomize = true, .seed = 3});
  Instance sharded_instance = flat_instance;
  Session flat(flat_instance);
  ShardedSession sharded(sharded_instance,
                         ShardedOptions{.shards = 4, .halo_radius = 3});

  // Attach a fresh agent to a resource whose support straddles the
  // boundary between shard 0 and shard 1 (contiguous cores of 64).
  const AgentId boundary = sharded.partition().core[0].back();
  const ResourceId i = flat_instance.agent_resources(boundary).front().id;
  const PartyId k = flat_instance.agent_parties(boundary).front().id;
  const AgentId fresh = flat_instance.num_agents();
  InstanceDelta delta;
  delta.add_agents(1).set_usage(i, fresh, 0.75).set_benefit(k, fresh, 0.5);

  (void)flat.apply(delta);
  const Session::ApplyReport report = sharded.apply(delta);
  EXPECT_TRUE(report.structural);
  EXPECT_FALSE(report.rebuilt);  // surgical re-extraction, not a repartition
  EXPECT_LT(report.repaired_entries, 4u);  // far shards stayed untouched

  SolveRequest request;
  request.algorithm = "averaging";
  request.R = 1;
  expect_bitwise_equal(engine::solve(flat, request), sharded.solve(request),
                       "agent-add");
  SolveRequest safe{.algorithm = "safe"};
  expect_bitwise_equal(engine::solve(flat, safe), sharded.solve(safe),
                       "agent-add/safe");
}

TEST(ShardDelta, BoundaryAgentRemovalRebuildsAndStaysEqual) {
  Instance flat_instance = make_grid_instance(
      {.dims = {16, 16}, .torus = false, .randomize = true, .seed = 3});
  Instance sharded_instance = flat_instance;
  Session flat(flat_instance);
  ShardedSession sharded(sharded_instance,
                         ShardedOptions{.shards = 4, .halo_radius = 3});

  // Remove the first agent of shard 1: ids compact across every shard.
  InstanceDelta delta;
  delta.remove_agent(sharded.partition().core[1].front());
  (void)flat.apply(delta);
  const Session::ApplyReport report = sharded.apply(delta);
  EXPECT_TRUE(report.rebuilt);

  SolveRequest request;
  request.algorithm = "averaging";
  request.R = 1;
  expect_bitwise_equal(engine::solve(flat, request), sharded.solve(request),
                       "agent-remove");
}

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------

TEST(ShardedSession, RejectsWhatShardingCannotServe) {
  const Instance instance = make_grid_instance({.dims = {6, 6}});
  ShardedSession sharded(instance,
                         ShardedOptions{.shards = 2, .halo_radius = 3});

  // Global solvers and the estimator have nothing to stitch.
  EXPECT_THROW(sharded.solve({.algorithm = "greedy"}), CheckError);
  EXPECT_THROW(sharded.solve({.algorithm = "optimal"}), CheckError);
  EXPECT_THROW(sharded.solve({.algorithm = "uniform"}), CheckError);
  EXPECT_THROW(sharded.solve({.algorithm = "sublinear"}), CheckError);

  // Oblivious mode: party supports are unbounded in H, the halo cannot
  // cover them.
  SolveRequest oblivious{.algorithm = "safe"};
  oblivious.collaboration_oblivious = true;
  EXPECT_THROW(sharded.solve(oblivious), CheckError);

  // Global dampings couple all agents.
  SolveRequest global_damping{.algorithm = "averaging"};
  global_damping.damping = AveragingDamping::kBetaGlobal;
  EXPECT_THROW(sharded.solve(global_damping), CheckError);

  // R = 2 needs halo 5, the session has 3.
  SolveRequest too_far{.algorithm = "averaging"};
  too_far.R = 2;
  EXPECT_THROW(sharded.solve(too_far), CheckError);

  // Shard-count mismatch fails loudly in both directions.
  SolveRequest mismatched{.algorithm = "safe"};
  mismatched.shards = 3;
  EXPECT_THROW(sharded.solve(mismatched), CheckError);
  Session flat(instance);
  EXPECT_THROW(engine::solve(flat, mismatched), CheckError);

  // A matching count (or 0) is served.
  mismatched.shards = 2;
  EXPECT_TRUE(sharded.solve(mismatched).has_solution);

  // Const binding: no apply.
  InstanceDelta delta;
  delta.set_usage(0, 0, 2.0);
  EXPECT_THROW(sharded.apply(delta), CheckError);
}

TEST(ShardedSession, ThreadBudgetIsOneSharedPoolNotPerShardPools) {
  // The oversubscription regression: the old design gave every shard a
  // private pool of max(1, threads/S) workers PLUS a fan-out pool, so
  // S=8, threads=4 spun up 8·1 + 4 = 12 workers on a 4-thread budget.
  // Now ONE pool carries the whole budget: exactly `threads` workers,
  // shared by the fan-out and every shard session.
  const Instance instance = make_grid_instance({.dims = {8, 8}});
  ShardedSession sharded(
      instance,
      ShardedOptions{.shards = 8, .halo_radius = 3, .threads = 4});
  EXPECT_EQ(sharded.worker_threads(), 4u);
  EXPECT_EQ(sharded.pool().size(), 4u);
  // Every shard session runs on the shared pool — no owned pools.
  for (std::int32_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shard_session(s).pool(), &sharded.pool());
    EXPECT_EQ(sharded.shard_session(s).thread_count(), 4u);
  }
  // And the budgeted session still solves correctly (nested bulk
  // regions on the one pool), matching the flat session bitwise.
  Session flat(instance);
  const SolveResult mono = engine::solve(flat, {.algorithm = "averaging"});
  const SolveResult part = sharded.solve({.algorithm = "averaging"});
  EXPECT_EQ(mono.x, part.x);
}

/// The solve.evaluate spans the tracer holds.
std::size_t evaluate_spans() {
  std::size_t count = 0;
  for (const auto& [tid, event] : obs::Tracer::instance().events()) {
    if (std::string_view(event.name) == "solve.evaluate") {
      EXPECT_EQ(std::string_view(event.category), "engine");
      ++count;
    }
  }
  return count;
}

/// One request's entries in the request ledger: how much
/// engine.requests and the engine.request_ms sample count grow across
/// `solve`.
template <typename Solve>
std::pair<std::int64_t, std::int64_t> ledger_entries(Solve&& solve) {
  obs::Registry& metrics = obs::Registry::global();
  obs::Counter& requests = metrics.counter("engine.requests");
  obs::Histogram& request_ms = metrics.histogram("engine.request_ms");
  const std::int64_t requests_before = requests.value();
  const std::int64_t samples_before = request_ms.count();
  solve();
  return {requests.value() - requests_before,
          request_ms.count() - samples_before};
}

TEST(ShardedSession, EvaluatesEqOneOncePerRequestLikeTheFlatPath) {
  // A sharded request evaluates the stitched x once; the shards hand
  // back unevaluated pieces, exactly like one flat request. It is also
  // one request in the ledger: one engine.requests count and one
  // engine.request_ms sample, not one per shard.
  const Instance instance = make_grid_instance({.dims = {8, 8}});
  const SolveRequest request{
      .algorithm = "averaging", .deduplicate = true, .trace = true};
  obs::Tracer::instance().set_enabled(false);
  obs::Tracer::instance().clear();
  Session flat(instance);
  SolveResult mono;
  EXPECT_EQ(ledger_entries([&] { mono = engine::solve(flat, request); }),
            std::make_pair(std::int64_t{1}, std::int64_t{1}));
  EXPECT_EQ(evaluate_spans(), 1u);
  obs::Tracer::instance().clear();

  ShardedSession sharded(instance,
                         ShardedOptions{.shards = 4, .halo_radius = 3});
  SolveResult part;
  EXPECT_EQ(ledger_entries([&] { part = sharded.solve(request); }),
            std::make_pair(std::int64_t{1}, std::int64_t{1}));
  EXPECT_EQ(evaluate_spans(), 1u);
  obs::Tracer::instance().clear();
  expect_bitwise_equal(mono, part, "grid 8x8 / S=4");

  // A flat session serves one shard: 0 and 1 pass, anything else fails.
  EXPECT_THROW(engine::solve(flat, {.algorithm = "safe", .shards = -1}),
               CheckError);
  EXPECT_TRUE(
      engine::solve(flat, {.algorithm = "safe", .shards = 1}).has_solution);
}

TEST(ShardedSession, OneDeadlineBoundsTheWholeRequest) {
  // The deadline is the request's, not each shard's: on one worker the
  // four shards run one after another, so a budget of half the warm
  // request time runs out inside the fan-out even though every shard
  // alone would fit in it.
  const Instance instance = make_random_instance({.num_agents = 2000,
                                                  .resources_per_agent = 2,
                                                  .parties_per_agent = 2,
                                                  .max_support = 3,
                                                  .seed = 5});
  ShardedSession sharded(
      instance, ShardedOptions{.shards = 4, .halo_radius = 3, .threads = 1});
  SolveRequest request{.algorithm = "averaging"};
  (void)sharded.solve(request);  // warm the shard caches
  // The fastest of three warm requests, so a host hiccup cannot
  // inflate the budget past a normal request.
  SolveResult warm = sharded.solve(request);
  for (int rep = 0; rep < 2; ++rep) {
    const SolveResult again = sharded.solve(request);
    ASSERT_EQ(again.x, warm.x);
    warm.total_ms = std::min(warm.total_ms, again.total_ms);
  }
  ASSERT_EQ(warm.status, engine::SolveStatus::kOk);
  ASSERT_GE(warm.total_ms, 8.0) << "instance too small to split a budget";

  obs::Counter& timeouts = obs::Registry::global().counter("engine.timeouts");
  const std::int64_t timeouts_before = timeouts.value();
  request.deadline_ms = static_cast<std::int64_t>(warm.total_ms / 2.0);
  const SolveResult late = sharded.solve(request);
  EXPECT_EQ(late.status, engine::SolveStatus::kTimeout);
  EXPECT_FALSE(late.has_solution);
  EXPECT_TRUE(late.x.empty());
  EXPECT_EQ(timeouts.value() - timeouts_before, 1);
  EXPECT_EQ(late.counters.at("timeouts"), 1);

  // The session stays valid: the next request is bitwise the warm one.
  request.deadline_ms = 0;
  EXPECT_EQ(sharded.solve(request).x, warm.x);
}

}  // namespace
}  // namespace mmlp
