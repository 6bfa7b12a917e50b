// Self-stabilizing safe/averaging executions: the knowledge substrate
// is SelfStabilizingFlood (recompute-from-neighbours each round, faults
// applied through the injector), and output() is run_local on whatever
// the tables currently claim — so once the tables reach the legitimate
// fixed point, the outputs are bit-for-bit the fault-free ones.
#include "mmlp/dist/self_stabilizing_solver.hpp"

#include "mmlp/engine/session.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"

namespace mmlp {

SelfStabilizingSolver::SelfStabilizingSolver(
    engine::Session& session, Algorithm algorithm,
    const LocalAveragingOptions& options)
    : session_(&session),
      algorithm_(algorithm),
      options_(options),
      flood_(session.graph(options.collaboration_oblivious),
             local_horizon(algorithm, options), session.pool()) {}

std::int32_t SelfStabilizingSolver::run_plan(FaultInjector& faults) {
  obs::ObsSpan span("selfstab.faulty_rounds", "dist");
  const std::int32_t rounds = faults.plan().rounds();
  for (std::int32_t round = 0; round < rounds; ++round) {
    flood_.step(&faults, round);
  }
  return rounds;
}

std::int32_t SelfStabilizingSolver::recover() {
  obs::ObsSpan span("selfstab.recover", "dist");
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
  obs::ObsSpan span("selfstab.output", "dist");
  return run_local(
      *session_,
      [this](AgentId v, std::vector<AgentId>& buffer) {
        return flood_.knowledge(v, buffer);
      },
      algorithm_, options_);
}

}  // namespace mmlp
