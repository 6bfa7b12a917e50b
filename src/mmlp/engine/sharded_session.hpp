// engine::ShardedSession — partition/halo solving behind the Session API.
//
// A ShardedSession cuts the bound instance into S shards (shard/
// partition.hpp), materializes each as a standalone sub-Instance with a
// radius-`halo_radius` halo (shard/extract.hpp), and owns one
// engine::Session per shard. solve() runs the same request shell as a
// flat Session (engine::run_request: one request count, one latency
// sample, one deadline over the whole request); its dispatch step runs
// the solver on every shard, stitches the per-core outputs back in
// global agent order, and evaluates the stitched vector once against
// the *global* instance — so the returned SolveResult (x, ω,
// feasibility, per-party benefits) is bitwise identical to the same
// request on a flat Session (tests/test_shard.cpp is the differential
// proof).
//
// Scope: sharding serves the constant-horizon local solvers with
// per-agent outputs — safe, averaging, distributed-safe,
// distributed-averaging — in full-collaboration mode with per-agent (or
// no) damping. Everything else is rejected with a CheckError naming the
// reason: global solvers read the whole instance, sublinear's estimate
// has no per-agent vector to stitch, collaboration_oblivious breaks the
// halo-horizon bound (party members can be arbitrarily far in H), and
// beta-global / none-then-scale damping couple all agents through one
// global minimum. The averaging family at radius R needs
// 2R+1 <= halo_radius; safe needs halo_radius >= 1 (always true).
//
// Updates: apply() first applies the delta to the global instance, then
// routes it. Pure value edits are translated into shard-local ids and
// forwarded to every shard whose sub-instance contains them (the shard
// Sessions repair their caches surgically, so incremental re-solves stay
// warm); structural edits rebuild the global communication graph, assign
// any new agents to shards, and re-extract only the shards whose core
// intersects the dirty region B_H(touched, halo_radius) — every other
// shard's sub-instance is provably byte-identical before and after, so
// it is left untouched. Id-remapping deltas (agent removals) fall back
// to a full repartition + re-extraction: cold but still exact.
//
// Threading: ONE cooperative pool, sized to the requested total (or the
// hardware), shared by the fan-out and every shard Session (via
// SessionOptions::shared_pool). The scheduler supports nested parallel
// regions — a fan-out worker solving shard s registers its inner
// chunked loops as bulk jobs that idle workers join — so a single pool
// is deadlock-free and the process never runs S·(threads/S) + S + T
// workers on T cores the way the old per-shard-pool design did
// (tests/test_shard.cpp pins the thread budget).
//
// Observability: shard.extract / shard.solve / shard.stitch spans, the
// shard.halo_agents gauge, and shard.requests / shard.delta_routes /
// shard.reextracts / shard.rebuilds counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/shard/extract.hpp"
#include "mmlp/shard/partition.hpp"

namespace mmlp::engine {

struct ShardedOptions {
  std::int32_t shards = 2;
  /// Halo hops each shard carries; serves safe always and the averaging
  /// family while 2R+1 <= halo_radius. Must be >= 1.
  std::int32_t halo_radius = 3;
  shard::PartitionStrategy strategy = shard::PartitionStrategy::kContiguous;
  std::uint64_t seed = 1;  ///< BFS partition seed selection
  /// Total worker budget: ONE pool of exactly this many workers is
  /// shared by the fan-out and every shard session. 0 = MMLP_THREADS
  /// env, else hardware concurrency.
  std::size_t threads = 0;
};

class ShardedSession {
 public:
  /// Mutable binding: apply() is available. The caller keeps `instance`
  /// alive (and does not mutate it behind the session's back).
  explicit ShardedSession(Instance& instance, ShardedOptions options = {});

  /// Const binding: solve-only; apply() throws.
  explicit ShardedSession(const Instance& instance,
                          ShardedOptions options = {});

  ShardedSession(const ShardedSession&) = delete;
  ShardedSession& operator=(const ShardedSession&) = delete;

  const Instance& instance() const { return *instance_; }
  std::int32_t num_shards() const { return options_.shards; }
  std::int32_t halo_radius() const { return options_.halo_radius; }
  const shard::Partition& partition() const { return partition_; }
  const shard::ShardInstance& shard_instance(std::int32_t s) const;
  Session& shard_session(std::int32_t s);

  /// Total halo copies across shards (the replication overhead; also
  /// exported as the shard.halo_agents gauge).
  std::size_t halo_agents() const;

  /// Fan out, solve per shard, stitch (see file comment). Bitwise equal
  /// to engine::solve on a flat Session over the same instance. The
  /// work diagnostics count every shard's core and halo: lp_solves is
  /// the sum over shards, and a dedup averaging request's dedup_ratio
  /// is 1 − lp_solves / Σ (core + halo agents). The cache numbers are
  /// summed over the shard sessions (stats()).
  SolveResult solve(const SolveRequest& request,
                    const SolverRegistry& registry);
  SolveResult solve(const SolveRequest& request);

  /// Apply to the global instance and route to the shards (see file
  /// comment). repaired_entries counts shards that absorbed the delta
  /// (routed or re-extracted); rebuilt reports a full repartition.
  Session::ApplyReport apply(const InstanceDelta& delta);

  /// Aggregated cache/scratch counters over all shard sessions.
  SessionStats stats() const;

  /// Workers in the single shared pool (the session's total thread
  /// budget — there are no per-shard pools).
  std::size_t worker_threads() const;

  /// The shared pool itself (fan-out + every shard session run on it).
  ThreadPool& pool() { return *pool_; }

 private:
  struct Shard {
    shard::ShardInstance piece;
    std::unique_ptr<Session> session;  // bound to piece.instance
  };

  void rebuild_all();
  std::unique_ptr<Shard> extract_one(std::int32_t s) const;

  const Instance* instance_;
  Instance* mutable_instance_ = nullptr;
  ShardedOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< shared: fan-out + shard sessions
  Hypergraph graph_;  ///< full-mode global communication graph
  shard::Partition partition_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mmlp::engine
