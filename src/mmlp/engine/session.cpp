// Session cache implementation. Every accessor goes through
// lookup_or_build: lock, serve a warm entry if present (counted as a
// hit, with its revision stamp asserted), otherwise build it under the
// lock with the build time charged to cache_build_ms_. Building under
// the lock is deliberate: concurrent solves on one session then build
// each entry exactly once, and the per-agent parallel loops inside the
// builders run on pool workers, not on threads that could re-enter the
// session. Each build is its cache's repair run over every agent.
//
// apply() is the update pipeline's hub: route the delta into the
// instance, append it to the edit log, then repair every cached entry
// in place — rebuild the communication graphs only on membership
// changes, re-BFS only the dirty region of each cached ball set,
// recompute only the ball-position rows within R of that region,
// recompute only the growth-set rows the dirty region touches, and
// re-serialize only the dirty agents of each view-orbit partition —
// and restamp everything with the new revision.
#include "mmlp/engine/session.hpp"

#include <algorithm>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/timer.hpp"

namespace mmlp::engine {

/// Per-cache-kind hit/miss counters in the global registry and the
/// build span name. One pair of relaxed adds per accessor call; lookups
/// resolve once per kind.
struct Session::CacheKind {
  obs::Counter& hits;
  obs::Counter& misses;
  const std::string span;
  explicit CacheKind(const std::string& kind)
      : hits(obs::Registry::global().counter("session." + kind + ".hits")),
        misses(obs::Registry::global().counter("session." + kind + ".misses")),
        span("session.build_" + kind) {}
};

Session::Session(const Instance& instance, SessionOptions options)
    : instance_(&instance), options_(options), revision_(instance.revision()) {
  if (options_.shared_pool == nullptr && options_.threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
}

Session::Session(Instance& instance, SessionOptions options)
    : Session(static_cast<const Instance&>(instance), options) {
  mutable_instance_ = &instance;
}

std::uint64_t Session::revision() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return revision_;
}

std::size_t Session::thread_count() const {
  const ThreadPool* effective = pool();
  return effective != nullptr ? effective->size() : ThreadPool::global().size();
}

void Session::assert_fresh(std::uint64_t entry_revision) const {
  // A mismatch means the instance was mutated without going through
  // apply() — the cached structure describes an instance that no longer
  // exists, and serving it would silently corrupt a solve.
  MMLP_CHECK_MSG(entry_revision == instance_->revision(),
                 "stale session cache: entry revision "
                     << entry_revision << " vs instance revision "
                     << instance_->revision()
                     << " (mutate the instance via Session::apply)");
}

template <typename K, typename T, typename Build>
const T& Session::lookup_or_build(std::map<K, Stamped<T>>& cache,
                                  const K& key, CacheKind& kind,
                                  Build&& build) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = cache.find(key); it != cache.end()) {
    ++cache_hits_;
    kind.hits.increment();
    assert_fresh(it->second.revision);
    return it->second.value;
  }
  ++cache_misses_;
  kind.misses.increment();
  obs::ObsSpan span(kind.span.c_str(), "engine");
  WallTimer timer;
  auto [it, inserted] =
      cache.emplace(key, Stamped<T>{build(), instance_->revision()});
  cache_build_ms_ += timer.milliseconds();
  return it->second.value;
}

const Hypergraph& Session::graph(bool collaboration_oblivious) {
  static CacheKind kind("graph");
  return lookup_or_build(graphs_, collaboration_oblivious, kind, [&] {
    return instance_->communication_graph(collaboration_oblivious);
  });
}

const std::vector<std::vector<AgentId>>& Session::balls(
    std::int32_t radius, bool collaboration_oblivious) {
  MMLP_CHECK_GE(radius, 0);
  // Resolve the graph first (its own lock scope) so the balls build
  // below never re-enters the session mutex; the growth and view-class
  // accessors resolve their balls the same way.
  const Hypergraph& h = graph(collaboration_oblivious);
  static CacheKind kind("balls");
  return lookup_or_build(balls_, Key{radius, collaboration_oblivious}, kind,
                         [&] { return all_balls(h, radius, pool()); });
}

const BallPositions& Session::ball_positions(std::int32_t radius,
                                            bool collaboration_oblivious) {
  const std::vector<std::vector<AgentId>>& cached_balls =
      balls(radius, collaboration_oblivious);
  static CacheKind kind("ball_positions");
  return lookup_or_build(positions_, Key{radius, collaboration_oblivious},
                         kind,
                         [&] { return all_ball_positions(cached_balls, pool()); });
}

const GrowthSets& Session::growth_sets(std::int32_t radius,
                                       bool collaboration_oblivious) {
  const std::vector<std::vector<AgentId>>& cached_balls =
      balls(radius, collaboration_oblivious);
  static CacheKind kind("growth");
  return lookup_or_build(growth_, Key{radius, collaboration_oblivious}, kind,
                         [&] {
                           return compute_growth_sets(*instance_,
                                                      cached_balls);
                         });
}

const ViewClassIndex& Session::view_classes(std::int32_t radius,
                                            bool collaboration_oblivious) {
  const std::vector<std::vector<AgentId>>& cached_balls =
      balls(radius, collaboration_oblivious);
  static CacheKind kind("view_classes");
  return lookup_or_build(view_classes_, Key{radius, collaboration_oblivious},
                         kind, [&] {
                           return build_view_class_index(
                               *instance_, cached_balls, radius,
                               collaboration_oblivious, pool());
                         });
}

void Session::drop_caches_locked() {
  graphs_.clear();
  balls_.clear();
  positions_.clear();
  growth_.clear();
  view_classes_.clear();
  for (auto& [key, memo] : solution_memos_) {
    memo->valid = false;
  }
  for (auto& [key, memo] : averaging_memos_) {
    memo->valid = false;
  }
}

Session::ApplyReport Session::apply(const InstanceDelta& delta) {
  MMLP_CHECK_MSG(mutable_instance_ != nullptr,
                 "session is bound to a const Instance; construct it with a "
                 "mutable Instance& to apply deltas");
  static obs::Counter& delta_counter =
      obs::Registry::global().counter("session.deltas");
  delta_counter.increment();
  obs::ObsSpan span("session.apply", "engine");
  WallTimer timer;
  std::lock_guard<std::mutex> lock(mutex_);
  const DeltaEffect effect = mutable_instance_->apply(delta);

  ApplyReport report;
  report.revision = effect.revision;
  report.structural = effect.structural;
  report.touched_agents = effect.touched.size();
  if (effect.revision == revision_) {
    // Empty delta: nothing changed, nothing to repair.
    report.apply_ms = timer.milliseconds();
    return report;
  }

  if (effect.remapped) {
    // Ids moved: cached structures are not addressable in the new id
    // space. Drop them wholesale (rebuilt lazily, still correct) and
    // invalidate the incremental memos the same way.
    report.rebuilt = true;
    drop_caches_locked();
    log_.push_back({effect.revision, true, {}});
    revision_ = effect.revision;
    prune_log_locked();  // every memo is invalid now: drops the log
    report.apply_ms = timer.milliseconds();
    return report;
  }

  log_.push_back({effect.revision, false, effect.touched});

  // Communication graphs: membership changes rebuild the cached modes;
  // pure value edits leave them untouched (hyperedges carry no values).
  for (auto& [oblivious, entry] : graphs_) {
    if (effect.structural) {
      entry.value = instance_->communication_graph(oblivious);
      ++report.repaired_entries;
    }
    entry.revision = effect.revision;
  }

  // Dirty region per (radius, mode), shared by the repairs below. The
  // touched set is closed over every changed adjacency (both endpoints
  // are in it), so one BFS on the *new* graph covers the old reach too.
  std::map<Key, std::vector<AgentId>> dirty_memo;
  const auto dirty_for = [&](const Key& key) -> const std::vector<AgentId>& {
    auto [it, inserted] = dirty_memo.try_emplace(key);
    if (inserted) {
      it->second = multi_source_ball(graphs_.at(key.second).value,
                                     effect.touched, key.first);
    }
    return it->second;
  };

  for (auto& [key, entry] : balls_) {
    if (effect.structural) {
      repair_balls(graphs_.at(key.second).value, key.first,
                   dirty_for(key), entry.value, pool());
      ++report.repaired_entries;
    }
    entry.revision = effect.revision;
  }
  // Row j reads B(j, R) and the balls of its members, so it can change
  // only within R of the balls' dirty region D: ∪_{d∈D} B(d, R) =
  // B(touched, 2R). Value-only edits leave every ball, so every row, as
  // it was.
  for (auto& [key, entry] : positions_) {
    if (effect.structural) {
      repair_ball_positions(balls_.at(key).value,
                            dirty_for(Key{2 * key.first, key.second}),
                            entry.value, pool());
      ++report.repaired_entries;
    }
    entry.revision = effect.revision;
  }
  for (auto& [key, entry] : growth_) {
    if (effect.structural) {
      repair_growth_sets(*instance_, balls_.at(key).value, dirty_for(key),
                         entry.value);
      ++report.repaired_entries;
    }
    entry.revision = effect.revision;
  }
  // View orbits key on coefficient *values*, so they are dirty under
  // value-only edits too.
  for (auto& [key, entry] : view_classes_) {
    repair_view_class_index(*instance_, balls_.at(key).value, dirty_for(key),
                            entry.value, pool());
    ++report.repaired_entries;
    entry.revision = effect.revision;
  }

  // Integrity checksum over the surgical repairs above: recompute a few
  // evenly spaced balls per cached entry from scratch and compare. The
  // balls are the root structure (growth sets and view classes derive
  // from them), so a divergence here is the earliest observable symptom
  // of a repair bug — and the response is to stop trusting every cache,
  // not to limp on: drop them wholesale and invalidate the memos, which
  // turns the bug into cold-cache latency instead of wrong bits.
  verify_integrity_locked(report);

  revision_ = effect.revision;
  prune_log_locked();
  report.apply_ms = timer.milliseconds();
  return report;
}

namespace {
/// Position row v recomputed from `balls` and compared with the cached
/// one. A mismatch, not a throw, when the balls disagree with each other.
bool position_row_matches(const std::vector<std::vector<AgentId>>& balls,
                          const BallPositions& positions, std::size_t v) {
  const std::vector<AgentId>& ball_v = balls[v];
  if (v + 1 >= positions.offset.size() || positions.size(v) != ball_v.size()) {
    return false;
  }
  const std::uint16_t* const row = positions.row(v);
  for (std::size_t t = 0; t < ball_v.size(); ++t) {
    const std::vector<AgentId>& ball_u =
        balls[static_cast<std::size_t>(ball_v[t])];
    const auto it = std::lower_bound(ball_u.begin(), ball_u.end(),
                                     static_cast<AgentId>(v));
    if (it == ball_u.end() || *it != static_cast<AgentId>(v) ||
        row[t] != it - ball_u.begin()) {
      return false;
    }
  }
  return true;
}
}  // namespace

bool Session::verify_integrity_locked(ApplyReport& report) {
  static obs::Counter& fallback_counter =
      obs::Registry::global().counter("session.integrity_fallbacks");
  constexpr std::size_t kSamplesPerEntry = 4;
  bool diverged = false;
  for (const auto& [key, entry] : balls_) {
    const Hypergraph& h = graphs_.at(key.second).value;
    const auto n = entry.value.size();
    const auto positions = positions_.find(key);
    // k * n / kSamples for k = 0..K-1: always includes agent 0, spreads
    // the rest across the id space (duplicates on tiny n are harmless).
    for (std::size_t k = 0; k < kSamplesPerEntry && !diverged; ++k) {
      const std::size_t v = k * n / kSamplesPerEntry;
      if (v >= n) {
        break;
      }
      ++report.verified_balls;
      if (entry.value[v] != ball(h, static_cast<NodeId>(v), key.first) ||
          (positions != positions_.end() &&
           !position_row_matches(entry.value, positions->second.value, v))) {
        diverged = true;
      }
    }
    if (diverged) {
      break;
    }
  }
  if (!diverged) {
    return false;
  }
  report.integrity_fallback = true;
  report.rebuilt = true;
  drop_caches_locked();
  ++integrity_fallbacks_;
  fallback_counter.increment();
  return true;
}

void Session::corrupt_cached_ball_for_test(std::int32_t radius,
                                           bool collaboration_oblivious,
                                           AgentId agent) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = balls_.find(Key{radius, collaboration_oblivious});
  MMLP_CHECK_MSG(it != balls_.end(),
                 "corrupt_cached_ball_for_test: radius "
                     << radius << " (oblivious=" << collaboration_oblivious
                     << ") is not cached");
  auto& cached = it->second.value;
  MMLP_CHECK_GE(agent, 0);
  MMLP_CHECK_LT(static_cast<std::size_t>(agent), cached.size());
  // Every real ball contains its own center, so an empty one is always
  // detectably wrong.
  cached[static_cast<std::size_t>(agent)].clear();
}

void Session::corrupt_cached_position_for_test(std::int32_t radius,
                                               bool collaboration_oblivious,
                                               AgentId agent) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = positions_.find(Key{radius, collaboration_oblivious});
  MMLP_CHECK_MSG(it != positions_.end(),
                 "corrupt_cached_position_for_test: radius "
                     << radius << " (oblivious=" << collaboration_oblivious
                     << ") is not cached");
  BallPositions& cached = it->second.value;
  MMLP_CHECK_GE(agent, 0);
  MMLP_CHECK_LT(static_cast<std::size_t>(agent) + 1, cached.offset.size());
  // Every row has an entry (the ball holds its center), and flipping the
  // low bit always names another index.
  cached.index[cached.offset[static_cast<std::size_t>(agent)]] ^= 1;
}

void Session::prune_log_locked() {
  // Records at or below every valid memo's revision can never be
  // queried again; drop them. The hard cap bounds the log even when a
  // memo goes permanently stale — dirty_since then answers nullopt for
  // it and its next solve falls back to full, which re-stamps it.
  std::uint64_t needed = revision_;
  for (const auto& [key, memo] : solution_memos_) {
    if (memo->valid) {
      needed = std::min(needed, memo->revision);
    }
  }
  for (const auto& [key, memo] : averaging_memos_) {
    if (memo->valid) {
      needed = std::min(needed, memo->revision);
    }
  }
  std::size_t drop = 0;
  while (drop < log_.size() && log_[drop].revision <= needed) {
    ++drop;
  }
  constexpr std::size_t kMaxLogRecords = 1024;
  if (log_.size() - drop > kMaxLogRecords) {
    drop = log_.size() - kMaxLogRecords;
  }
  if (drop > 0) {
    log_floor_ = log_[drop - 1].revision;
    log_.erase(log_.begin(),
               log_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
}

std::optional<std::vector<AgentId>> Session::dirty_since(
    std::uint64_t since_revision, std::int32_t radius,
    bool collaboration_oblivious) {
  MMLP_CHECK_GE(radius, 0);
  std::vector<AgentId> touched;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (since_revision < log_floor_) {
      // Edits after since_revision were already pruned: the union
      // would be incomplete, so report "too old" instead.
      return std::nullopt;
    }
    for (auto it = log_.rbegin();
         it != log_.rend() && it->revision > since_revision; ++it) {
      if (it->full) {
        return std::nullopt;
      }
      touched.insert(touched.end(), it->touched.begin(), it->touched.end());
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  if (touched.empty() || radius == 0) {
    return touched;
  }
  // graph() takes its own lock scope; the BFS itself runs lock-free.
  const Hypergraph& h = graph(collaboration_oblivious);
  return multi_source_ball(h, touched, radius);
}

SolutionMemo& Session::solution_memo(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = solution_memos_[fingerprint];
  if (slot == nullptr) {
    slot = std::make_unique<SolutionMemo>();
  }
  return *slot;
}

AveragingMemo& Session::averaging_memo(const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = averaging_memos_[fingerprint];
  if (slot == nullptr) {
    slot = std::make_unique<AveragingMemo>();
  }
  return *slot;
}

SessionStats Session::stats() const {
  SessionStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.cache_hits = cache_hits_;
    stats.cache_misses = cache_misses_;
    stats.cache_build_ms = cache_build_ms_;
    stats.integrity_fallbacks = integrity_fallbacks_;
    // Refresh the registry gauges while the lock pins the cache maps:
    // entry counts and memo sizes are instantaneous values, sampled
    // whenever someone asks for stats (op:"stats", batch epilogue).
    obs::Registry& registry = obs::Registry::global();
    registry.gauge("session.graph.entries")
        .set(static_cast<std::int64_t>(graphs_.size()));
    registry.gauge("session.balls.entries")
        .set(static_cast<std::int64_t>(balls_.size()));
    registry.gauge("session.ball_positions.entries")
        .set(static_cast<std::int64_t>(positions_.size()));
    registry.gauge("session.growth.entries")
        .set(static_cast<std::int64_t>(growth_.size()));
    registry.gauge("session.view_classes.entries")
        .set(static_cast<std::int64_t>(view_classes_.size()));
    registry.gauge("session.solution_memos")
        .set(static_cast<std::int64_t>(solution_memos_.size()));
    registry.gauge("session.averaging_memos")
        .set(static_cast<std::int64_t>(averaging_memos_.size()));
    registry.gauge("session.edit_log_records")
        .set(static_cast<std::int64_t>(log_.size()));
  }
  stats.scratch_created = static_cast<std::int64_t>(view_scratch_.creations() +
                                                    dist_scratch_.creations());
  stats.scratch_reused = static_cast<std::int64_t>(view_scratch_.reuses() +
                                                   dist_scratch_.reuses());
  return stats;
}

}  // namespace mmlp::engine
