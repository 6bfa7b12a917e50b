// Self-stabilizing safe/averaging executions: the knowledge substrate
// is SelfStabilizingFlood (recompute-from-neighbours each round, faults
// applied through the injector), and output() runs the same per-agent
// decision pipelines as the fault-free distributed solvers on whatever
// the tables currently claim — so once the tables reach the legitimate
// fixed point, the outputs are bit-for-bit the fault-free ones.
#include "mmlp/dist/self_stabilizing_solver.hpp"

#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

std::int32_t horizon_for(SelfStabilizingSolver::Algorithm algorithm,
                         const LocalAveragingOptions& options) {
  if (algorithm == SelfStabilizingSolver::Algorithm::kSafe) {
    return 1;
  }
  MMLP_CHECK_GE(options.R, 1);
  return 2 * options.R + 1;
}

}  // namespace

SelfStabilizingSolver::SelfStabilizingSolver(
    engine::Session& session, Algorithm algorithm,
    const LocalAveragingOptions& options)
    : session_(&session),
      algorithm_(algorithm),
      options_(options),
      flood_(session.instance(), horizon_for(algorithm, options),
             options.collaboration_oblivious, session.pool()) {
  if (algorithm_ == Algorithm::kAveraging) {
    MMLP_CHECK_MSG(options_.damping == AveragingDamping::kBetaPerAgent,
                   "only the per-agent damping of eq. (10) is a local rule");
  }
}

std::int32_t SelfStabilizingSolver::run_plan(FaultInjector& faults) {
  const std::int32_t rounds = faults.plan().rounds();
  for (std::int32_t round = 0; round < rounds; ++round) {
    flood_.step(&faults, round);
  }
  return rounds;
}

std::int32_t SelfStabilizingSolver::recover() {
  std::int32_t rounds = 0;
  while (!flood_.is_legitimate()) {
    MMLP_CHECK_MSG(rounds <= flood_.horizon(),
                   "self-stabilization contract violated: still illegitimate "
                   "after " << rounds << " clean rounds (horizon "
                            << flood_.horizon() << ")");
    cancel::checkpoint();
    flood_.step();
    ++rounds;
  }
  return rounds;
}

std::vector<double> SelfStabilizingSolver::output() const {
  if (algorithm_ == Algorithm::kSafe) {
    return flood_.safe_output();
  }
  const Instance& instance = session_->instance();
  const auto n = static_cast<std::size_t>(instance.num_agents());
  std::vector<double> x(n, 0.0);
  // Chunked like distributed_local_averaging_with: each worker leases
  // one materialization/view/LP bundle for all its agents; the
  // per-agent pipeline is the shared pure function, so the
  // legitimate-state output matches the session path bitwise.
  chunked_parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        auto scratch = session_->dist_scratch().acquire();
        for (std::size_t j = begin; j < end; ++j) {
          // Per-agent cancellation poll, as in the session path: each
          // iteration is a full materialize-and-solve pipeline.
          cancel::checkpoint();
          const auto agent = static_cast<AgentId>(j);
          x[j] = averaging_pipeline(instance, agent, flood_.knowledge(agent),
                                    options_, *scratch);
        }
      },
      session_->pool());
  return x;
}

}  // namespace mmlp
