// Engine session economics: what does a request pay on a cold session
// vs. request #2..#N on a hot one — and what does view deduplication
// shave off the hot path?  For every scenario/size the harness times
// the same registry request:
//
//   <scenario>_cold       : a fresh engine::Session per solve — every
//                           repeat rebuilds balls, growth sets and
//                           worker scratch (the pre-engine cost);
//   <scenario>_warm       : one persistent Session primed once —
//                           repeats hit the caches, so only the
//                           algorithm proper remains;
//   <scenario>_dedup_warm : the same warm request with
//                           deduplicate=true — one view LP per
//                           view orbit instead of one per agent
//                           (averaging cases only; output bitwise equal
//                           to the _warm case);
//   <scenario>_dedup_warm_nosym : the same dedup-on measurement on the
//                           no-symmetry stress scenario (random), where
//                           every view orbit is a singleton — the case
//                           exists to prove the dedup path bails out to
//                           the plain per-agent loop and stays at
//                           parity with dedup-off (speedup_vs_off ≈ 1)
//                           instead of paying for staging + scatter;
//   <scenario>_latency    : ~16 individually timed warm repeats of the
//                           averaging request plus a k=16 update +
//                           incremental re-solve between samples, fed
//                           into an obs::Histogram — surfaced as
//                           latency_p50_ms / latency_p90_ms /
//                           latency_p99_ms counters, alongside the
//                           per-request obs counter deltas
//                           (simplex_solves, simplex_pivots,
//                           scratch_leases);
//   <scenario>_update_resolve_k<k> : the streaming-update workload — k
//                           random single-coefficient edits applied
//                           through Session::apply followed by one
//                           incremental re-solve, on a session whose
//                           memo is primed. dirty_agents /
//                           resolved_agents count the spliced region;
//                           speedup_vs_warm_full is the warm full-solve
//                           wall over the update+re-solve wall (the
//                           acceptance bar: >= 10x for k=1 on the 1e5
//                           grid).
//
// The counters carry the proof that the machinery actually engaged:
// cache_build_ms / cache_misses from the request's timing breakdown
// (≈0 on warm cases), the warm/cold wall ratio, and on dedup cases
// lp_solves / dedup_ratio plus speedup_vs_off (warm dedup-off ms over
// warm dedup-on ms). The acceptance criterion of the
// dedup PR reads this file at --scale full (1e5 agents): the grid
// scenario must report dedup_ratio >= 0.9 and speedup_vs_off >= 3,
// with the random scenario not regressing.
//
// The shard sweep (<scenario>_shard_<algorithm>_S<k>) measures the
// partitioned serving path of engine::ShardedSession against the S=1
// monolithic session on the same instance: per-case counters carry the
// partition economics (halo_agents, halo_fraction, build_ms for the
// extract fan-out) and speedup_vs_mono. It runs its own size ladder —
// the point of sharding is the 10^6..10^7 regime, so --scale full
// pushes a 10^6-agent averaging sweep across S in {1, 2, 4, 8} and a
// 10^7-agent safe case, far past the regular sweep's sizes.
//
// The thread sweep (grid_torus_<variant>_T<k>) re-measures the warm
// averaging/safe/dedup/update workloads at T in {1, 2, 4, 8} dedicated
// workers and reports speedup_vs_t1 / parallel_efficiency plus the
// scheduler's own busy/chunk/steal accounting — the CI-gated multi-core
// scaling axis (ROADMAP item 3). See run_thread_sweep.
#include <algorithm>

#include "mmlp/dist/self_stabilizing_solver.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/util/bench_report.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/rng.hpp"
#include "mmlp/util/timer.hpp"

#include "scenarios.hpp"

namespace {

using mmlp::engine::Session;
using mmlp::engine::SolveRequest;
using mmlp::engine::SolveResult;

/// Runs the cold/warm pair; returns the warm wall time so the dedup
/// case can report its speedup against it.
double run_pair(mmlp::bench::Report& report, const std::string& scenario,
                const mmlp::Instance& instance, const SolveRequest& request,
                int reps) {
  SolveResult last;

  auto& cold = report.run_case(scenario + "_cold", instance.num_agents(), reps,
                               [&] {
                                 Session session(instance);
                                 last = mmlp::engine::solve(session, request);
                               });
  cold.counters["cache_build_ms"] = last.cache_build_ms;
  cold.counters["cache_misses"] = static_cast<double>(last.cache_misses);
  const double cold_ms = cold.wall_ms;

  Session session(instance);
  (void)mmlp::engine::solve(session, request);  // prime the caches
  auto& warm = report.run_case(
      scenario + "_warm", instance.num_agents(), reps,
      [&] { last = mmlp::engine::solve(session, request); });
  warm.counters["cache_build_ms"] = last.cache_build_ms;
  warm.counters["cache_misses"] = static_cast<double>(last.cache_misses);
  warm.counters["cache_hits"] = static_cast<double>(last.cache_hits);
  warm.counters["cold_over_warm"] =
      warm.wall_ms > 0.0 ? cold_ms / warm.wall_ms : 0.0;
  if (const auto it = last.diagnostics.find("lp_solves");
      it != last.diagnostics.end()) {
    warm.counters["lp_solves"] = it->second;
  }
  return warm.wall_ms;
}

/// The latency-distribution case: ~16 individually timed warm repeats
/// of the request, interleaved with a k=16 random-edit update +
/// incremental re-solve (the streaming workload of the acceptance
/// criterion), every per-request total_ms observed into an
/// obs::Histogram. Reported as percentile counters rather than the
/// harness's min-wall estimator — the histogram is exactly what the
/// metrics registry exports, so the bench doubles as a check that the
/// observability plumbing produces sane numbers.
void run_latency(mmlp::bench::Report& report, const std::string& scenario,
                 const mmlp::Instance& instance, SolveRequest request) {
  using namespace mmlp;
  Instance working = instance;  // mutated by the interleaved updates
  Session session(working);
  (void)engine::solve(session, request);  // prime the caches
  SolveRequest incremental = request;
  incremental.incremental = true;
  (void)engine::solve(session, incremental);  // prime the memo
  Rng rng(40013u);
  obs::Histogram hist;
  SolveResult last;
  constexpr int kSamples = 16;
  auto& bench_case = report.run_case(
      scenario + "_latency", instance.num_agents(), 1, [&] {
        for (int sample = 0; sample < kSamples; ++sample) {
          last = engine::solve(session, request);
          hist.observe(last.total_ms);
          for (int edit = 0; edit < 16; ++edit) {
            const auto i = static_cast<ResourceId>(rng.next_below(
                static_cast<std::uint64_t>(working.num_resources())));
            const CoefSpan support = working.resource_support(i);
            const Coef& entry = support[static_cast<std::size_t>(
                rng.next_below(support.size()))];
            InstanceDelta delta;
            delta.set_usage(i, entry.id, entry.value * rng.uniform(0.5, 1.5));
            (void)session.apply(delta);
          }
          last = engine::solve(session, incremental);
          hist.observe(last.total_ms);
        }
      });
  bench_case.counters["samples"] = static_cast<double>(hist.count());
  bench_case.counters["latency_p50_ms"] = hist.percentile(0.50);
  bench_case.counters["latency_p90_ms"] = hist.percentile(0.90);
  bench_case.counters["latency_p99_ms"] = hist.percentile(0.99);
  // Per-request obs counter deltas of the last (incremental) solve.
  for (const char* key :
       {"simplex_solves", "simplex_pivots", "scratch_leases",
        "bfs_ball_expansions"}) {
    if (const auto it = last.counters.find(key); it != last.counters.end()) {
      bench_case.counters[key] = static_cast<double>(it->second);
    }
  }
}

/// Times the deduplicated request on a session whose caches — including
/// the view-class partition — are already hot, so the case isolates the
/// per-solve dedup economics (class build cost shows up once, in the
/// priming solve, exactly like the other session caches).
void run_dedup(mmlp::bench::Report& report, const std::string& scenario,
               const mmlp::Instance& instance, SolveRequest request, int reps,
               double warm_off_ms, const char* case_suffix = "_dedup_warm") {
  request.deduplicate = true;
  SolveResult last;
  Session session(instance);
  (void)mmlp::engine::solve(session, request);  // prime caches + classes
  auto& dedup = report.run_case(
      scenario + case_suffix, instance.num_agents(), reps,
      [&] { last = mmlp::engine::solve(session, request); });
  dedup.counters["cache_build_ms"] = last.cache_build_ms;
  dedup.counters["cache_misses"] = static_cast<double>(last.cache_misses);
  dedup.counters["lp_solves"] = last.diagnostics.at("lp_solves");
  dedup.counters["dedup_ratio"] = last.diagnostics.at("dedup_ratio");
  dedup.counters["warm_off_ms"] = warm_off_ms;
  dedup.counters["speedup_vs_off"] =
      dedup.wall_ms > 0.0 ? warm_off_ms / dedup.wall_ms : 0.0;
}

/// The streaming-update workload: k random single-coefficient edits
/// (each its own Session::apply) followed by one incremental re-solve,
/// timed together — the end-to-end latency of absorbing k edits into a
/// live solution. The session is mutable-bound to a private copy of the
/// instance (edits must not leak into the other cases) and primed with
/// one full incremental solve so the memo exists.
void run_update_resolve(mmlp::bench::Report& report, const std::string& scenario,
                        const mmlp::Instance& instance, SolveRequest request,
                        int reps, double warm_full_ms) {
  using namespace mmlp;
  request.incremental = true;
  for (const int k : {1, 16, 256}) {
    Instance working = instance;
    Session session(working);
    (void)engine::solve(session, request);  // prime caches + memo
    Rng rng(10007u + static_cast<std::uint64_t>(k));
    SolveResult last;
    auto& bench_case = report.run_case(
        scenario + "_update_resolve_k" + std::to_string(k),
        instance.num_agents(), reps, [&] {
          for (int edit = 0; edit < k; ++edit) {
            const auto i = static_cast<ResourceId>(
                rng.next_below(static_cast<std::uint64_t>(
                    working.num_resources())));
            const CoefSpan support = working.resource_support(i);
            const Coef& entry = support[static_cast<std::size_t>(
                rng.next_below(support.size()))];
            InstanceDelta delta;
            delta.set_usage(i, entry.id, entry.value * rng.uniform(0.5, 1.5));
            (void)session.apply(delta);
          }
          last = engine::solve(session, request);
        });
    bench_case.counters["edits"] = static_cast<double>(k);
    bench_case.counters["incremental"] = last.diagnostics.at("incremental");
    bench_case.counters["dirty_agents"] = last.diagnostics.at("dirty_agents");
    bench_case.counters["resolved_agents"] =
        last.diagnostics.at("resolved_agents");
    bench_case.counters["warm_full_ms"] = warm_full_ms;
    bench_case.counters["speedup_vs_warm_full"] =
        bench_case.wall_ms > 0.0 ? warm_full_ms / bench_case.wall_ms : 0.0;
  }
}

/// The partitioned-serving sweep: one instance, solved monolithically
/// (S=1) and through ShardedSessions of increasing shard count. Each
/// sharded case reports the partition economics alongside the wall
/// time; the S=1 wall is the baseline every speedup_vs_mono divides.
/// Sizes are the sweep's own ladder — sharding exists for the
/// 10^6..10^7-agent regime the regular sweep never reaches.
void run_shard_sweep(mmlp::bench::Report& report, const std::string& scale,
                     int reps) {
  using namespace mmlp;
  struct SweepPoint {
    std::int64_t agents;
    const char* algorithm;
    std::vector<std::int32_t> shard_counts;
    int reps;
  };
  std::vector<SweepPoint> points;
  if (scale == "smoke") {
    points.push_back({512, "averaging", {1, 2, 4, 8}, reps});
  } else if (scale == "small") {
    points.push_back({10000, "averaging", {1, 2, 4, 8}, reps});
  } else {
    // The headline regime: a full shard-count curve at 10^6 agents and
    // a 10^7-agent case proving the partitioned path holds at a size
    // where the monolithic cold build alone is the bottleneck.
    points.push_back({1000000, "averaging", {1, 2, 4, 8}, 1});
    points.push_back({10000000, "safe", {1, 8}, 1});
  }

  for (const SweepPoint& point : points) {
    const Instance instance =
        bench_scenarios::make_scenario("grid_torus", point.agents);
    SolveRequest request;
    request.algorithm = point.algorithm;
    request.R = 1;
    const std::string base = std::string("grid_torus_shard_") +
                             point.algorithm + "_";
    double mono_ms = 0.0;
    for (const std::int32_t shards : point.shard_counts) {
      SolveResult last;
      if (shards == 1) {
        mmlp::WallTimer build_timer;
        Session session(instance);
        (void)mmlp::engine::solve(session, request);  // prime
        const double build_ms = build_timer.milliseconds();
        auto& mono = report.run_case(
            base + "S1", instance.num_agents(), point.reps,
            [&] { last = mmlp::engine::solve(session, request); });
        mono.counters["shards"] = 1.0;
        mono.counters["halo_agents"] = 0.0;
        mono.counters["build_ms"] = build_ms;
        mono_ms = mono.wall_ms;
        continue;
      }
      mmlp::WallTimer build_timer;
      engine::ShardedSession session(
          instance, engine::ShardedOptions{.shards = shards,
                                           .halo_radius = 3});
      (void)session.solve(request);  // prime every shard session
      const double build_ms = build_timer.milliseconds();
      auto& sharded = report.run_case(
          base + "S" + std::to_string(shards), instance.num_agents(),
          point.reps, [&] { last = session.solve(request); });
      sharded.counters["shards"] = static_cast<double>(shards);
      sharded.counters["halo_agents"] =
          static_cast<double>(session.halo_agents());
      sharded.counters["halo_fraction"] =
          static_cast<double>(session.halo_agents()) /
          static_cast<double>(instance.num_agents());
      sharded.counters["pool_threads"] =
          static_cast<double>(session.worker_threads());
      sharded.counters["build_ms"] = build_ms;
      sharded.counters["mono_ms"] = mono_ms;
      sharded.counters["speedup_vs_mono"] =
          sharded.wall_ms > 0.0 ? mono_ms / sharded.wall_ms : 0.0;
      if (const auto it = last.diagnostics.find("lp_solves");
          it != last.diagnostics.end()) {
        sharded.counters["lp_solves"] = it->second;
      }
    }
  }
}

/// The multi-core scaling sweep (ROADMAP item 3): the same warm request
/// measured at T ∈ {1, 2, 4, 8} dedicated session workers, on the
/// grid_torus scenario (smoke 512 / small 1e4 / full 1e5 agents). Each
/// case carries the scaling verdict directly: speedup_vs_t1 (the T=1
/// wall of the same variant over this wall), parallel_efficiency
/// (min(1, speedup/T) — 1.0 is linear scaling), and the scheduler's own
/// accounting deltas over the timed region (worker_busy_fraction =
/// busy_ns summed over workers / T·wall, plus bulk chunks). The
/// efficiency counters are gated by compare_bench.py, so a scheduler
/// change that quietly serializes the hot path fails the bench CI job.
/// Note the caller participates in bulk regions, so at T=1 the pool's
/// single worker often stays idle (busy_fraction ≈ 0 is expected
/// there); efficiency, not busy_fraction, is the gated signal.
void run_thread_sweep(mmlp::bench::Report& report, const std::string& scale,
                      int reps) {
  using namespace mmlp;
  const std::int64_t agents =
      scale == "smoke" ? 512 : scale == "small" ? 10000 : 100000;
  const Instance instance =
      bench_scenarios::make_scenario("grid_torus", agents);

  struct Variant {
    std::string stem;
    SolveRequest request;
    bool update_workload;  ///< 16 edits + incremental re-solve per rep
  };
  const std::vector<Variant> variants = {
      {"grid_torus_averaging_warm",
       {.algorithm = "averaging", .R = 1},
       false},
      {"grid_torus_safe_warm", {.algorithm = "safe"}, false},
      {"grid_torus_averaging_dedup_warm",
       {.algorithm = "averaging", .R = 1, .deduplicate = true},
       false},
      {"grid_torus_update_resolve_k16",
       {.algorithm = "averaging", .R = 1, .incremental = true},
       true},
  };

  for (const Variant& variant : variants) {
    double t1_wall_ms = 0.0;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      Instance working = instance;  // update workloads mutate their copy
      Session session(working,
                      engine::SessionOptions{.threads = threads});
      (void)engine::solve(session, variant.request);  // prime the caches
      if (variant.update_workload) {
        (void)engine::solve(session, variant.request);  // prime the memo
      }
      // One edit seed for every T, so each T applies the same edits and
      // re-solves the same dirty regions.
      Rng rng(77003u);
      SolveResult last;
      ThreadPool& pool = *session.pool();
      const std::vector<ThreadPool::WorkerStats> before =
          pool.worker_stats();
      WallTimer sweep_timer;
      auto& bench_case = report.run_case(
          variant.stem + "_T" + std::to_string(threads), agents, reps, [&] {
            if (variant.update_workload) {
              for (int edit = 0; edit < 16; ++edit) {
                const auto i = static_cast<ResourceId>(
                    rng.next_below(static_cast<std::uint64_t>(
                        working.num_resources())));
                const CoefSpan support = working.resource_support(i);
                const Coef& entry = support[static_cast<std::size_t>(
                    rng.next_below(support.size()))];
                InstanceDelta delta;
                delta.set_usage(i, entry.id,
                                entry.value * rng.uniform(0.5, 1.5));
                (void)session.apply(delta);
              }
            }
            last = engine::solve(session, variant.request);
          });
      const double measured_ms = sweep_timer.milliseconds();
      const std::vector<ThreadPool::WorkerStats> after = pool.worker_stats();

      bench_case.counters["threads"] = static_cast<double>(threads);
      if (threads == 1) {
        t1_wall_ms = bench_case.wall_ms;
      }
      const double speedup =
          bench_case.wall_ms > 0.0 ? t1_wall_ms / bench_case.wall_ms : 0.0;
      bench_case.counters["t1_ms"] = t1_wall_ms;
      bench_case.counters["speedup_vs_t1"] = speedup;
      bench_case.counters["parallel_efficiency"] =
          std::min(1.0, speedup / static_cast<double>(threads));

      double busy_ns = 0.0, chunks = 0.0;
      for (std::size_t w = 0; w < after.size(); ++w) {
        busy_ns += static_cast<double>(after[w].busy_ns - before[w].busy_ns);
        chunks += static_cast<double>(after[w].chunks - before[w].chunks);
      }
      // run_case re-runs the body `reps` times and keeps the minimum
      // wall; the stats deltas cover every rep, so normalise by the
      // total measured time, not the reported minimum.
      const double total_wall_ns =
          measured_ms * 1e6 * static_cast<double>(threads);
      bench_case.counters["worker_busy_fraction"] =
          total_wall_ns > 0.0 ? std::min(1.0, busy_ns / total_wall_ns) : 0.0;
      bench_case.counters["bulk_chunks"] = chunks;
      if (const auto it = last.diagnostics.find("lp_solves");
          it != last.diagnostics.end()) {
        bench_case.counters["lp_solves"] = it->second;
      }
    }
  }
}

/// Fault-recovery economics (the robustness PR's acceptance surface):
///
///   grid_torus_recovery_selfstab_<algo> : run a seeded 64-event fault
///       plan against the self-stabilizing execution, then time the
///       fault-free rounds back to the legitimate fixed point. The
///       counters carry the stabilization contract numerically:
///       rounds_to_legitimate <= horizon + 1 (the rounds recover() ran,
///       the count the selfstab-* wire diagnostic reports), recovery_ms
///       is the wall cost of those clean rounds, faults_injected proves
///       the plan actually fired.
///   grid_torus_integrity_fallback : corrupt one cached ball (the test
///       hook), apply a delta whose surgical repair cannot reach it,
///       and time the spot-check detection plus the forced full
///       re-solve. fallback_full_solves counts the wholesale cache
///       drops the checksum divergence triggered.
void run_recovery(mmlp::bench::Report& report, const std::string& scale,
                  int reps) {
  using namespace mmlp;
  const std::int64_t agents =
      scale == "smoke" ? 512 : scale == "small" ? 4096 : 10000;
  const Instance instance =
      bench_scenarios::make_scenario("grid_torus", agents);

  struct Algo {
    const char* name;
    SelfStabilizingSolver::Algorithm algorithm;
  };
  const Algo algos[] = {
      {"safe", SelfStabilizingSolver::Algorithm::kSafe},
      {"averaging", SelfStabilizingSolver::Algorithm::kAveraging},
  };
  Session selfstab_session(instance);
  for (const Algo& algo : algos) {
    double recovery_ms = 0.0;
    std::int32_t rounds = 0;
    std::int32_t horizon = 0;
    std::int64_t injected = 0;
    auto& bench_case = report.run_case(
        std::string("grid_torus_recovery_selfstab_") + algo.name,
        instance.num_agents(), reps, [&] {
          SelfStabilizingSolver solver(selfstab_session, algo.algorithm,
                                       {.R = 1});
          FaultInjector faults(
              FaultPlan::random(29, 3, instance.num_agents(), 64));
          solver.run_plan(faults);
          WallTimer timer;
          rounds = solver.recover();
          recovery_ms = timer.milliseconds();
          horizon = solver.horizon();
          injected = faults.faults_injected();
        });
    bench_case.counters["rounds_to_legitimate"] =
        static_cast<double>(rounds);
    bench_case.counters["recovery_ms"] = recovery_ms;
    bench_case.counters["horizon"] = static_cast<double>(horizon);
    bench_case.counters["faults_injected"] = static_cast<double>(injected);
  }

  Instance working = instance;
  Session session(working);
  Rng rng(51001u);
  const SolveRequest request{.algorithm = "distributed-safe"};
  const std::int64_t fallbacks_before = session.stats().integrity_fallbacks;
  SolveResult last;
  auto& fallback_case = report.run_case(
      "grid_torus_integrity_fallback", instance.num_agents(), reps, [&] {
        (void)mmlp::engine::solve(session, request);  // warm the balls
        session.corrupt_cached_ball_for_test(1, false, 0);
        InstanceDelta delta;
        delta.set_usage(working.num_resources() / 2,
                        working.num_agents() / 2, rng.uniform(0.5, 1.5));
        (void)session.apply(delta);  // spot-check detects, drops caches
        last = mmlp::engine::solve(session, request);  // cold rebuild
      });
  fallback_case.counters["fallback_full_solves"] = static_cast<double>(
      session.stats().integrity_fallbacks - fallbacks_before);
  fallback_case.counters["cache_misses"] =
      static_cast<double>(last.cache_misses);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmlp;
  return bench::bench_main(
      argc, argv, "engine",
      [](bench::Report& report, const std::string& scale, int reps) {
        for (const std::string& scenario :
             {std::string("grid_torus"), std::string("random")}) {
          for (const std::int64_t n : bench_scenarios::swept_sizes(scale)) {
            const Instance instance =
                bench_scenarios::make_scenario(scenario, n);
            // The averaging request is where the session caches carry
            // real weight (balls + growth sets + per-worker LP scratch).
            const double warm_averaging_ms =
                run_pair(report, scenario + "_averaging", instance,
                         {.algorithm = "averaging", .R = 1}, reps);
            // Dedup economics on the same request: the grid scenario
            // collapses to O(1) view orbits; the random scenario is
            // the no-symmetry stress case (ratio ~0) whose case name
            // records that it proves singleton-bailout parity.
            run_dedup(report, scenario + "_averaging", instance,
                      {.algorithm = "averaging", .R = 1}, reps,
                      warm_averaging_ms,
                      scenario == "random" ? "_dedup_warm_nosym"
                                           : "_dedup_warm");
            // The per-request latency distribution of the streaming
            // solve/update mix, as obs::Histogram percentiles.
            run_latency(report, scenario + "_averaging", instance,
                        {.algorithm = "averaging", .R = 1});
            // The update workload: how much of the warm solve does
            // locality let a k-edit re-solve skip?
            run_update_resolve(report, scenario + "_averaging", instance,
                               {.algorithm = "averaging", .R = 1}, reps,
                               warm_averaging_ms);
            // The safe request derives no cacheable state: warm ≈ cold
            // by design, which keeps the comparison honest.
            run_pair(report, scenario + "_safe", instance,
                     {.algorithm = "safe"}, reps);
          }
        }
        // The partitioned-serving curve, on its own size ladder.
        run_shard_sweep(report, scale, reps);
        // The multi-core scaling curve (T in {1,2,4,8}) with the
        // CI-gated efficiency counters.
        run_thread_sweep(report, scale, reps);
        // Fault-recovery economics: stabilization after a fault plan
        // and the cost of a checksum-divergence full rebuild.
        run_recovery(report, scale, reps);
      });
}
