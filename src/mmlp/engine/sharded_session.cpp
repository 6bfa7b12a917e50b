#include "mmlp/engine/sharded_session.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "mmlp/core/solution.hpp"
#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/timer.hpp"

namespace mmlp::engine {

namespace {

void set_halo_gauge(std::size_t halo_agents) {
  static obs::Gauge& gauge = obs::Registry::global().gauge("shard.halo_agents");
  gauge.set(static_cast<std::int64_t>(halo_agents));
}

}  // namespace

ShardedSession::ShardedSession(Instance& instance, ShardedOptions options)
    : instance_(&instance), mutable_instance_(&instance),
      options_(std::move(options)) {
  MMLP_CHECK_GE(options_.shards, 1);
  MMLP_CHECK_GE(options_.halo_radius, 1);
  // One pool, total budget exactly options_.threads (0 = env/hardware,
  // resolved by the pool). Fan-out workers and the shard sessions'
  // nested loops all cooperate on it.
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  options_.threads = pool_->size();
  rebuild_all();
}

ShardedSession::ShardedSession(const Instance& instance, ShardedOptions options)
    : instance_(&instance), options_(std::move(options)) {
  MMLP_CHECK_GE(options_.shards, 1);
  MMLP_CHECK_GE(options_.halo_radius, 1);
  pool_ = std::make_unique<ThreadPool>(options_.threads);
  options_.threads = pool_->size();
  rebuild_all();
}

std::size_t ShardedSession::worker_threads() const { return pool_->size(); }

const shard::ShardInstance& ShardedSession::shard_instance(
    std::int32_t s) const {
  MMLP_CHECK_GE(s, 0);
  MMLP_CHECK_LT(s, options_.shards);
  return shards_[static_cast<std::size_t>(s)]->piece;
}

Session& ShardedSession::shard_session(std::int32_t s) {
  MMLP_CHECK_GE(s, 0);
  MMLP_CHECK_LT(s, options_.shards);
  return *shards_[static_cast<std::size_t>(s)]->session;
}

std::size_t ShardedSession::halo_agents() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->piece.halo_agents();
  }
  return total;
}

std::unique_ptr<ShardedSession::Shard> ShardedSession::extract_one(
    std::int32_t s) const {
  auto shard = std::make_unique<Shard>();
  shard->piece = shard::extract_shard(
      *instance_, graph_, partition_.core[static_cast<std::size_t>(s)],
      options_.halo_radius);
  shard->session = std::make_unique<Session>(
      shard->piece.instance, SessionOptions{.shared_pool = pool_.get()});
  return shard;
}

void ShardedSession::rebuild_all() {
  graph_ = instance_->communication_graph(false);
  partition_ = shard::make_partition(
      graph_, {.shards = options_.shards, .strategy = options_.strategy,
               .seed = options_.seed});
  shards_.clear();
  shards_.resize(static_cast<std::size_t>(options_.shards));
  parallel_for(
      shards_.size(),
      [&](std::size_t s) {
        shards_[s] = extract_one(static_cast<std::int32_t>(s));
      },
      pool_.get());
  set_halo_gauge(halo_agents());
}

SolveResult ShardedSession::solve(const SolveRequest& request,
                                  const SolverRegistry& registry) {
  const SolverRegistry::Entry& entry = registry.find(request.algorithm);
  const bool averaging_family = request.algorithm == "averaging" ||
                                request.algorithm == "distributed-averaging";
  const bool safe_family = request.algorithm == "safe" ||
                           request.algorithm == "distributed-safe";
  MMLP_CHECK_MSG(
      averaging_family || safe_family,
      "algorithm '" << request.algorithm
                    << "' is not shardable: sharded solving serves the "
                       "constant-horizon per-agent solvers (safe, averaging, "
                       "distributed-safe, distributed-averaging)");
  MMLP_CHECK_MSG(
      !request.collaboration_oblivious,
      "sharded solving requires full-collaboration mode: without party "
      "hyperedges in H a halo cannot bound a view's party supports");
  if (request.algorithm == "averaging") {
    MMLP_CHECK_MSG(request.damping == AveragingDamping::kBetaPerAgent ||
                       request.damping == AveragingDamping::kNone,
                   "sharded averaging supports the per-agent (or no) damping "
                   "rule: global dampings couple every agent through one "
                   "instance-wide minimum");
  }
  if (averaging_family) {
    MMLP_CHECK_MSG(
        2 * request.R + 1 <= options_.halo_radius,
        "averaging at R=" << request.R << " needs halo_radius >= "
                          << 2 * request.R + 1 << " but the sharded session "
                          << "was built with halo_radius = "
                          << options_.halo_radius);
  }
  static obs::Counter& requests =
      obs::Registry::global().counter("shard.requests");
  requests.increment();

  // The dispatch step of the one request shell: fan out, stitch, and
  // evaluate the stitched x once. The shards run under the request's
  // token (the bulk job carries it), so one deadline covers the whole
  // request, and a CancelledError from any shard leaves parallel_for
  // for the shell to map to a status.
  const auto dispatch = [&](SolveResult& result) {
    std::vector<SolveResult> shard_results(shards_.size());
    parallel_for(
        shards_.size(),
        [&](std::size_t s) {
          obs::ObsSpan span("shard.solve", "engine.shard");
          obs::ObsSpan solve_span(entry.name.c_str(), "engine.solve");
          entry.run(*shards_[s]->session, request, shard_results[s]);
        },
        pool_.get());
    {
      obs::ObsSpan span("shard.stitch", "engine.shard");
      result.x.resize(static_cast<std::size_t>(instance_->num_agents()));
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        const shard::ShardInstance& piece = shards_[s]->piece;
        const SolveResult& shard_result = shard_results[s];
        MMLP_CHECK(shard_result.has_solution);
        MMLP_CHECK_EQ(shard_result.x.size(), piece.agents.size());
        for (std::size_t j = 0; j < piece.core.size(); ++j) {
          result.x[static_cast<std::size_t>(piece.core[j])] =
              shard_result.x[static_cast<std::size_t>(piece.core_local[j])];
        }
      }
      result.has_solution = true;
      obs::ObsSpan evaluate_span("solve.evaluate", "engine");
      const Evaluation evaluation =
          evaluate(*instance_, result.x, &result.party_benefit);
      result.omega = evaluation.omega;
      result.feasible = evaluation.feasible();
    }

    // Merge the per-shard diagnostics.
    double lp_solves = 0.0;
    bool have_lp_solves = false;
    double dirty_agents = 0.0;
    double resolved_agents = 0.0;
    double incremental = 1.0;
    bool have_incremental = true;
    for (const SolveResult& shard_result : shard_results) {
      if (const auto it = shard_result.diagnostics.find("lp_solves");
          it != shard_result.diagnostics.end()) {
        lp_solves += it->second;
        have_lp_solves = true;
      }
      if (const auto it = shard_result.diagnostics.find("incremental");
          it != shard_result.diagnostics.end()) {
        incremental = std::min(incremental, it->second);
        dirty_agents += shard_result.diagnostics.at("dirty_agents");
        resolved_agents += shard_result.diagnostics.at("resolved_agents");
      } else {
        have_incremental = false;
      }
    }
    result.diagnostics["shards"] = static_cast<double>(options_.shards);
    result.diagnostics["halo_agents"] = static_cast<double>(halo_agents());
    if (averaging_family) {
      result.diagnostics["R"] = static_cast<double>(request.R);
    }
    if (have_lp_solves) {
      result.diagnostics["lp_solves"] = lp_solves;
    }
    // The flat averaging solve reports dedup_ratio on every dedup
    // request; here it is the share of view LPs saved over every agent
    // the shards serve, halo copies included.
    const auto served_agents =
        static_cast<double>(result.x.size() + halo_agents());
    if (request.deduplicate && request.algorithm == "averaging" &&
        served_agents > 0.0) {
      result.diagnostics["dedup_ratio"] = 1.0 - lp_solves / served_agents;
    }
    if (have_incremental) {
      result.diagnostics["incremental"] = incremental;
      result.diagnostics["dirty_agents"] = dirty_agents;
      result.diagnostics["resolved_agents"] = resolved_agents;
    }
  };
  return run_request(request, entry, worker_threads(), options_.shards,
                     [this] { return stats(); }, dispatch, nullptr);
}

SolveResult ShardedSession::solve(const SolveRequest& request) {
  return solve(request, SolverRegistry::builtin());
}

Session::ApplyReport ShardedSession::apply(const InstanceDelta& delta) {
  MMLP_CHECK_MSG(mutable_instance_ != nullptr,
                 "apply() requires a ShardedSession over a mutable instance");
  obs::Registry& metrics = obs::Registry::global();
  static obs::Counter& routes = metrics.counter("shard.delta_routes");
  static obs::Counter& reextracts = metrics.counter("shard.reextracts");
  static obs::Counter& rebuilds = metrics.counter("shard.rebuilds");

  WallTimer timer;
  const DeltaEffect effect = mutable_instance_->apply(delta);
  Session::ApplyReport report;
  report.revision = effect.revision;
  report.structural = effect.structural;
  report.touched_agents = effect.touched.size();

  if (effect.remapped) {
    // Agent ids were compacted: every shard map is stale. Repartition
    // and re-extract from scratch — cold but exact.
    rebuild_all();
    rebuilds.increment();
    report.rebuilt = true;
    report.repaired_entries = shards_.size();
  } else if (effect.structural) {
    // Support membership changed: the communication graph is new, and
    // so (possibly) are agents. Assign new agents to the shard of their
    // smallest already-owned neighbor (round-robin when isolated), then
    // re-extract exactly the shards whose core intersects the dirty
    // region B_H(touched, halo) — every other shard's sub-instance is
    // byte-identical before and after the delta.
    graph_ = instance_->communication_graph(false);
    const std::size_t old_agents = partition_.shard_of.size();
    const auto new_agents = static_cast<std::size_t>(instance_->num_agents());
    for (std::size_t v = old_agents; v < new_agents; ++v) {
      std::int32_t assigned = -1;
      for (const NodeId w : graph_.neighbors(static_cast<NodeId>(v))) {
        if (static_cast<std::size_t>(w) < old_agents) {
          assigned = partition_.shard_of[static_cast<std::size_t>(w)];
          break;  // neighbors are sorted: this is the smallest owner
        }
      }
      if (assigned < 0) {
        assigned = static_cast<std::int32_t>(
            v % static_cast<std::size_t>(options_.shards));
      }
      partition_.shard_of.push_back(assigned);
      // New ids exceed every existing id, so push_back keeps the core
      // sorted.
      partition_.core[static_cast<std::size_t>(assigned)].push_back(
          static_cast<AgentId>(v));
    }
    const std::vector<AgentId> dirty =
        multi_source_ball(graph_, effect.touched, options_.halo_radius);
    std::vector<char> affected(shards_.size(), 0);
    for (const AgentId v : dirty) {
      affected[static_cast<std::size_t>(
          partition_.shard_of[static_cast<std::size_t>(v)])] = 1;
    }
    std::vector<std::size_t> to_extract;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (affected[s] != 0) {
        to_extract.push_back(s);
      }
    }
    parallel_for(
        to_extract.size(),
        [&](std::size_t index) {
          const std::size_t s = to_extract[index];
          shards_[s] = extract_one(static_cast<std::int32_t>(s));
        },
        pool_.get());
    reextracts.add(static_cast<std::int64_t>(to_extract.size()));
    report.repaired_entries = to_extract.size();
  } else {
    // Pure value edits: translate into shard-local ids and forward to
    // every shard whose sub-instance holds the edited entries. The
    // shard Sessions repair their own caches surgically, so memos and
    // incremental re-solves stay warm.
    std::atomic<std::size_t> routed{0};
    parallel_for(
        shards_.size(),
        [&](std::size_t s) {
          const shard::ShardInstance& piece = shards_[s]->piece;
          InstanceDelta local;
          for (const InstanceDelta::CoefEdit& edit : delta.usages) {
            const ResourceId i = piece.local_resource(edit.row);
            const AgentId v = piece.local_agent(edit.v);
            if (i >= 0 && v >= 0) {
              local.usages.push_back({i, v, edit.value});
            }
          }
          for (const InstanceDelta::CoefEdit& edit : delta.benefits) {
            const PartyId k = piece.local_party(edit.row);
            const AgentId v = piece.local_agent(edit.v);
            if (k >= 0 && v >= 0) {
              local.benefits.push_back({k, v, edit.value});
            }
          }
          if (!local.empty()) {
            (void)shards_[s]->session->apply(local);
            routed.fetch_add(1, std::memory_order_relaxed);
          }
        },
        pool_.get());
    routes.add(static_cast<std::int64_t>(routed.load()));
    report.repaired_entries = routed.load();
  }
  set_halo_gauge(halo_agents());
  report.apply_ms = timer.milliseconds();
  return report;
}

SessionStats ShardedSession::stats() const {
  SessionStats total;
  for (const auto& shard : shards_) {
    const SessionStats stats = shard->session->stats();
    total.cache_hits += stats.cache_hits;
    total.cache_misses += stats.cache_misses;
    total.cache_build_ms += stats.cache_build_ms;
    total.scratch_created += stats.scratch_created;
    total.scratch_reused += stats.scratch_reused;
    total.integrity_fallbacks += stats.integrity_fallbacks;
  }
  return total;
}

}  // namespace mmlp::engine
