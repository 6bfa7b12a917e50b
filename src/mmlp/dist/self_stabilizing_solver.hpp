// Self-stabilizing executions of the paper's actual solvers.
//
// Section 1.1's remark — every constant-horizon local algorithm yields
// a self-stabilizing algorithm with constant stabilization time — is
// realized here for the two local solvers, not just the flooding
// primitive: each agent maintains only its bounded-radius knowledge
// table (SelfStabilizingFlood), recomputes it from its neighbours'
// tables every synchronous round, and derives its output purely from
// the current table. output() is run_local (dist/algorithms.hpp) with
// the tables as the knowledge source — the same executor and decision
// rules distributed_safe / distributed_local_averaging run on the
// session balls.
//
// Because a round keeps nothing of the old state, the executable
// guarantee is: from ANY corrupted state — including every table fully
// randomized and any replayable FaultPlan applied during the faulty
// prefix — after horizon + 1 fault-free rounds the tables are the
// legitimate fixed point and output() is bitwise-equal to the
// fault-free execution (distributed_safe / distributed_local_averaging
// with dedup off). tests/test_selfstab_solver.cpp property-tests the
// bar across scenarios × R × seeded plans.
#pragma once

#include <cstdint>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/core/local_averaging.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/util/fault.hpp"

namespace mmlp {

namespace engine {
class Session;
}  // namespace engine

class SelfStabilizingSolver {
 public:
  using Algorithm = LocalAlgorithm;

  /// Starts in the legitimate state, bound to `session` like the
  /// registry entry that serves it: every round and output() run on
  /// session.pool(), and output() leases its per-agent bundles from
  /// session.dist_scratch(). The flood borrows
  /// session.graph(options.collaboration_oblivious), so the solver must
  /// not outlive a structural Session::apply. The rest of `options` is
  /// read by kAveraging only (R, lp); its damping must be the per-agent
  /// rule, matching distributed_local_averaging.
  SelfStabilizingSolver(engine::Session& session, Algorithm algorithm,
                        const LocalAveragingOptions& options = {});

  Algorithm algorithm() const { return algorithm_; }
  std::int32_t horizon() const { return flood_.horizon(); }

  /// The underlying knowledge tables — exposed so tests and the fault
  /// replay path can corrupt or inspect them directly.
  SelfStabilizingFlood& knowledge() { return flood_; }
  const SelfStabilizingFlood& knowledge() const { return flood_; }

  /// Execute every round of `faults`' plan (rounds 0..plan.rounds()-1),
  /// exchanging each round's messages through the injector. Returns the
  /// number of rounds executed.
  std::int32_t run_plan(FaultInjector& faults);

  /// Fault-free rounds until the tables are the legitimate fixed point.
  /// Returns the rounds that ran (0 from a legitimate state). The
  /// stabilization contract is enforced, not just measured: tables still
  /// illegitimate after horizon() + 1 rounds are a CheckError. Polls the
  /// active cancel token once per round.
  std::int32_t recover();

  bool is_legitimate() const { return flood_.is_legitimate(); }

  /// Every agent's decision derived from its CURRENT table (legitimate
  /// or not) by run_local — the output recomputes from knowledge each
  /// round, nothing is carried over. In the legitimate state this is
  /// bitwise-equal to the fault-free distributed execution. May throw
  /// CheckError from a transient state whose tables violate the
  /// knowledge invariants (e.g. an agent that lost its own self entry);
  /// one clean round restores them. Polls the active cancel token once
  /// per agent.
  std::vector<double> output() const;

 private:
  engine::Session* session_;
  Algorithm algorithm_;
  LocalAveragingOptions options_;
  SelfStabilizingFlood flood_;
};

}  // namespace mmlp
