// engine::Session — the long-lived per-instance solve context.
//
// The paper's algorithms are different answers to *the same* max-min LP
// instance, and everything expensive they derive from it is a pure
// function of (instance, radius, hypergraph mode): the communication
// graph H, the radius-R balls B_H(v, R) and each agent's positions in
// its neighbours' balls, the Figure 2 growth sets, and the per-worker
// scratch workspaces (view extraction, simplex tableaus,
// materialization arenas). A Session binds to one Instance and caches
// all of it, so solve #2..#N on the same instance pay only for the
// algorithm proper — the request/response serving model the ROADMAP's
// "many requests, one hot session" path is built on (tools/mmlp_batch).
//
// Cache keys:
//   graph        : collaboration_oblivious           (map)
//   balls        : (radius, collaboration_oblivious) (map)
//   positions    : (radius, collaboration_oblivious) (map; balls implied)
//   growth sets  : (radius, collaboration_oblivious) (map; balls implied)
//   view classes : (radius, collaboration_oblivious) (map; balls implied)
//   scratch      : pooled, unkeyed — objects only donate capacity
// Each derived cache has one derivation: its cold build is its repair
// run with every agent dirty on an empty entry (all_balls,
// all_ball_positions, compute_growth_sets, build_view_class_index), and
// all five accessors share one lookup-or-build path.
//
// Mutation: a session constructed over a mutable Instance& additionally
// owns the update pipeline. apply(InstanceDelta) routes the edit into
// the instance and then *repairs* every cached structure surgically
// instead of dropping it: the communication graphs are rebuilt only on
// membership changes, cached balls are re-BFSed only inside the dirty
// region (repair_balls), ball positions recompute only the rows within
// R of it (structural edits only), growth sets recompute only the rows
// whose supports intersect it, and view-orbit partitions re-serialize only
// the dirty agents (every index keeps one key per orbit, whether the
// session is const- or mutable-bound). Every cache entry carries the
// instance revision it was derived from and accessors assert the stamp
// before serving, so a stale structure can never reach a solver
// (mutating the instance behind the session's back trips the same
// assert). Deltas that remap agent ids (removals) fall back to dropping
// the caches wholesale — still correct, just cold. Incremental
// re-solves additionally keep per-algorithm memos (previous solution +
// per-view state) keyed by an options fingerprint; dirty_since() turns
// the edit log into the ball around everything edited after a given
// revision.
//
// Thread-safety: the cache accessors are serialised by an internal
// mutex, so concurrent solves on one session are safe; the scratch
// pools are lock-protected checkouts designed for exactly that. Cached
// references remain valid for the session's lifetime — repairs mutate
// entries in place — EXCEPT after an apply() that remapped agent ids,
// which invalidates previously returned references. apply() itself and
// incremental solves must not run concurrently with other solves on the
// same session (they mutate the instance and the memos those solves
// read). Results are bitwise identical to the cold free-function paths.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/core/transform.hpp"
#include "mmlp/core/view.hpp"
#include "mmlp/core/view_class.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/graph/hypergraph.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/scratch_pool.hpp"

namespace mmlp::engine {

struct SessionOptions {
  /// Worker threads for this session's parallel loops. 0 = share the
  /// process-global pool; N > 0 = the session owns a dedicated pool.
  /// Ignored when shared_pool is set.
  std::size_t threads = 0;
  /// Non-owning: run this session's parallel loops on an externally
  /// owned pool instead of creating one. ShardedSession uses this to
  /// run every shard session (and its own fan-out) on ONE cooperative
  /// pool sized to the hardware, so S shards never stack S pools of
  /// workers on top of each other (the oversubscription fix of ROADMAP
  /// item 3). The pool must outlive the session.
  ThreadPool* shared_pool = nullptr;
};

/// Monotonic cache/reuse counters. Snapshot before and after a solve to
/// attribute cache-build cost to the request that paid it (SolveResult's
/// timing breakdown does exactly that).
struct SessionStats {
  std::int64_t cache_hits = 0;    ///< cache lookups served warm
  std::int64_t cache_misses = 0;  ///< lookups that had to build the entry
  double cache_build_ms = 0.0;    ///< wall time spent building cache entries
  std::int64_t scratch_created = 0;  ///< scratch leases served by construction
  std::int64_t scratch_reused = 0;   ///< scratch leases served from the pool
  /// Times apply()'s integrity spot-check caught a diverged cache and
  /// dropped every cached structure (rebuilt lazily from the instance,
  /// which is ground truth). 0 in a correct build — the counter exists
  /// so a repair bug degrades to cold-cache performance, not to wrong
  /// answers, and is visible when it does.
  std::int64_t integrity_fallbacks = 0;
};

/// Per-worker scratch bundle for the distributed (LOCAL-model) solvers
/// (run_local, dist/algorithms.hpp): the buffer a knowledge source may
/// assemble an agent's knowledge set in, world materialization, and the
/// view/LP workspace that runs inside the materialized world.
struct DistScratch {
  std::vector<AgentId> knowledge;
  RestrictArena arena;
  Subinstance world;
  ViewScratch view;
};

/// Previous solution retained for incremental re-solves whose per-agent
/// outputs are scalars (safe).
struct SolutionMemo {
  bool valid = false;
  std::uint64_t revision = 0;  ///< instance revision the solution matches
  std::vector<double> x;
};

/// Every agent's view-LP solution x^u in one flat array laid out like
/// the balls: agent u owns values[offset[u] .. offset[u + 1]), one entry
/// per member of B(u, R) in ball order. The array is allocated without
/// zero fill; a plan writes every slot it later reads.
struct ViewSolutions {
  std::vector<std::size_t> offset;  ///< n + 1 prefix sums of |B(u, R)|
  std::unique_ptr<double[]> values;

  std::size_t size(std::size_t u) const { return offset[u + 1] - offset[u]; }
  double* slot(std::size_t u) { return values.get() + offset[u]; }
};

/// Previous local-averaging run retained for incremental re-solves: the
/// full result plus every agent's view-LP solution x^u (the gather of
/// eq. (10) needs x^u_j for *unchanged* u ∈ V^j too, so the per-view
/// state must outlive the solve that produced it).
struct AveragingMemo {
  bool valid = false;
  std::uint64_t revision = 0;
  LocalAveragingResult result;
  ViewSolutions view_x;
};

class Session {
 public:
  /// Binds to `instance` without copying it; the caller keeps the
  /// instance alive for the session's lifetime. A session constructed
  /// over a const instance cannot apply() deltas.
  explicit Session(const Instance& instance, SessionOptions options = {});

  /// Mutable binding: as above, plus apply() is available.
  explicit Session(Instance& instance, SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Instance& instance() const { return *instance_; }

  /// The instance revision this session's caches are valid for (equals
  /// instance().revision() unless someone mutated the instance behind
  /// the session's back — which the cache accessors then assert on).
  std::uint64_t revision() const;

  /// What apply() did to the session's caches.
  struct ApplyReport {
    std::uint64_t revision = 0;  ///< instance revision after the delta
    bool structural = false;     ///< support membership changed
    bool rebuilt = false;        ///< ids remapped: caches dropped wholesale
    std::size_t touched_agents = 0;    ///< |touched| of the delta
    std::size_t repaired_entries = 0;  ///< cache entries surgically repaired
    /// Balls recomputed from scratch by the post-repair integrity
    /// spot-check (a few per cached entry).
    std::size_t verified_balls = 0;
    /// The spot-check found a cached ball diverging from a from-scratch
    /// recompute: every cache was dropped (rebuilt set too) and every
    /// memo invalidated, so the next solves run full but correct.
    bool integrity_fallback = false;
    double apply_ms = 0.0;
  };

  /// Apply a delta to the bound instance and repair every cached
  /// structure in place (see the header comment). Requires the mutable
  /// constructor. Must not run concurrently with solves.
  ApplyReport apply(const InstanceDelta& delta);

  /// The sorted set of agents within `radius` of anything edited after
  /// `since_revision` — the dirty region an incremental solver with that
  /// knowledge horizon must re-solve. Empty when nothing was edited.
  /// nullopt when an intervening delta remapped agent ids: the previous
  /// solution is not addressable any more and callers must fall back to
  /// a full solve.
  std::optional<std::vector<AgentId>> dirty_since(std::uint64_t since_revision,
                                                  std::int32_t radius,
                                                  bool collaboration_oblivious);

  /// Incremental-solve memos, keyed by an options fingerprint the
  /// solver chooses. The reference stays valid for the session's
  /// lifetime; contents are owned by the solver (single incremental
  /// solve at a time per session).
  SolutionMemo& solution_memo(const std::string& fingerprint);
  AveragingMemo& averaging_memo(const std::string& fingerprint);

  /// The pool parallel loops should run on: the shared pool when the
  /// session was constructed with one, else the session-owned pool, or
  /// nullptr meaning "use ThreadPool::global()" (the convention of
  /// parallel_for's pool parameter).
  ThreadPool* pool() const {
    return options_.shared_pool != nullptr ? options_.shared_pool
                                           : owned_pool_.get();
  }

  /// Worker count of the effective pool.
  std::size_t thread_count() const;

  /// Communication hypergraph H (Section 1.4), cached per mode.
  const Hypergraph& graph(bool collaboration_oblivious);

  /// B_H(v, radius) for every agent, cached per (radius, mode).
  const std::vector<std::vector<AgentId>>& balls(std::int32_t radius,
                                                 bool collaboration_oblivious);

  /// Where each agent sits in its neighbours' balls of (radius, mode),
  /// cached (see BallPositions): the eq. (10) gather reads x^u_j through
  /// it. Built from the cached balls; apply() repairs it surgically.
  const BallPositions& ball_positions(std::int32_t radius,
                                      bool collaboration_oblivious);

  /// The Figure 2 growth sets for the balls of (radius, mode), cached.
  const GrowthSets& growth_sets(std::int32_t radius,
                                bool collaboration_oblivious);

  /// The view-orbit partition for (radius, mode), cached. Built from
  /// the cached balls; deduplicated local averaging solves one view LP
  /// per orbit on it; apply() repairs it surgically.
  const ViewClassIndex& view_classes(std::int32_t radius,
                                     bool collaboration_oblivious);

  /// Per-worker scratch pools (see ScratchPool): view extraction + LP
  /// solving, and the distributed solvers' materialization bundles.
  ScratchPool<ViewScratch>& view_scratch() { return view_scratch_; }
  ScratchPool<DistScratch>& dist_scratch() { return dist_scratch_; }

  /// Counter snapshot (scratch numbers are pulled from the pools).
  SessionStats stats() const;

  /// TEST HOOK: overwrite agent `agent`'s cached radius-`radius` ball
  /// with garbage (the entry must be cached). Exists so tests can prove
  /// the apply() integrity fallback actually fires and so the bench
  /// recovery sweep can price it; nothing else may call it.
  void corrupt_cached_ball_for_test(std::int32_t radius,
                                    bool collaboration_oblivious,
                                    AgentId agent);

  /// TEST HOOK: point the first entry of agent `agent`'s cached
  /// radius-`radius` position row at the wrong ball member (the entry
  /// must be cached), so tests can prove the integrity spot-check reads
  /// the position rows too; nothing else may call it.
  void corrupt_cached_position_for_test(std::int32_t radius,
                                        bool collaboration_oblivious,
                                        AgentId agent);

 private:
  using Key = std::pair<std::int32_t, bool>;  // (radius, oblivious)

  /// A cache entry plus the instance revision it was derived from;
  /// accessors assert the stamp before serving.
  template <typename T>
  struct Stamped {
    T value;
    std::uint64_t revision = 0;
  };

  /// One applied delta, as dirty_since needs it.
  struct EditRecord {
    std::uint64_t revision = 0;
    bool full = false;  ///< remapped ids: no surgical dirty set exists
    std::vector<AgentId> touched;
  };

  /// Per-kind hit/miss counters and build span (defined in session.cpp).
  struct CacheKind;

  void assert_fresh(std::uint64_t entry_revision) const;
  /// Serve cache[key] warm (a hit, revision stamp asserted) or build it
  /// under the lock (a miss, traced and charged to cache_build_ms_).
  template <typename K, typename T, typename Build>
  const T& lookup_or_build(std::map<K, Stamped<T>>& cache, const K& key,
                           CacheKind& kind, Build&& build);
  /// Drop every cached structure and invalidate every memo: the answer
  /// to remapped ids and to a failed integrity spot-check alike.
  void drop_caches_locked();
  void prune_log_locked();
  /// Spot-check the repaired ball caches against from-scratch BFS, and
  /// the position rows of the same agents against the cached balls;
  /// true = a divergence was found and every cache/memo was dropped.
  bool verify_integrity_locked(ApplyReport& report);

  const Instance* instance_;
  Instance* mutable_instance_ = nullptr;
  SessionOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;

  mutable std::mutex mutex_;
  std::uint64_t revision_ = 0;  // instance revision the caches match
  /// Edit log for dirty_since. Pruned on every apply: records no valid
  /// memo can query any more are dropped, and a hard cap bounds the
  /// log on sessions whose memos go stale — log_floor_ records the
  /// highest pruned revision, below which dirty_since reports nullopt
  /// (the caller then falls back to a full solve).
  std::vector<EditRecord> log_;
  std::uint64_t log_floor_ = 0;
  std::map<bool, Stamped<Hypergraph>> graphs_;  // [collaboration_oblivious]
  std::map<Key, Stamped<std::vector<std::vector<AgentId>>>> balls_;
  std::map<Key, Stamped<BallPositions>> positions_;
  std::map<Key, Stamped<GrowthSets>> growth_;
  std::map<Key, Stamped<ViewClassIndex>> view_classes_;
  std::map<std::string, std::unique_ptr<SolutionMemo>> solution_memos_;
  std::map<std::string, std::unique_ptr<AveragingMemo>> averaging_memos_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  double cache_build_ms_ = 0.0;
  std::int64_t integrity_fallbacks_ = 0;

  ScratchPool<ViewScratch> view_scratch_;
  ScratchPool<DistScratch> dist_scratch_;
};

}  // namespace mmlp::engine
