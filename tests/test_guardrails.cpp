// Engine guardrails: cooperative cancellation and deadlines (the
// SolveStatus taxonomy), the invariant that a timed-out or cancelled
// solve leaves every session cache valid — the next request is
// bitwise-equal to a fresh-session run — and the apply() integrity
// spot-check whose divergence fallback trades a poisoned cache for a
// cold but correct one.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "mmlp/core/local_averaging.hpp"
#include "mmlp/dist/algorithms.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/util/cancel.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(CancelToken, StartsLive) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_NO_THROW(token.raise_if_expired());
}

TEST(CancelToken, CancelExpiresImmediately) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  try {
    token.raise_if_expired();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.reason(), CancelReason::kCancelled);
    EXPECT_STREQ(error.what(), "operation cancelled");
  }
}

TEST(CancelToken, ZeroDeadlineMeansUnlimited) {
  CancelToken token;
  token.set_deadline_after_ms(0);
  EXPECT_FALSE(token.deadline_passed());
  EXPECT_FALSE(token.expired());
}

TEST(CancelToken, PassedDeadlineExpiresWithTimeoutReason) {
  CancelToken token;
  token.set_deadline_after_ms(1);
  while (!token.deadline_passed()) {
    // Busy-wait the 1 ms out; steady_clock makes this finite.
  }
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  // An explicit cancel is the stronger signal even with the deadline
  // already passed.
  token.cancel();
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancelToken, CheckpointIsANoOpWithoutAScope) {
  EXPECT_NO_THROW(cancel::checkpoint());
  EXPECT_EQ(cancel::current_token(), nullptr);
}

TEST(CancelToken, ScopeInstallsAndRestores) {
  CancelToken token;
  EXPECT_EQ(cancel::current_token(), nullptr);
  {
    const cancel::CancelScope scope(&token);
    EXPECT_EQ(cancel::current_token(), &token);
    token.cancel();
    EXPECT_THROW(cancel::checkpoint(), CancelledError);
  }
  EXPECT_EQ(cancel::current_token(), nullptr);
  EXPECT_NO_THROW(cancel::checkpoint());
}

TEST(SolveStatus, NamesAreStable) {
  EXPECT_STREQ(engine::solve_status_name(engine::SolveStatus::kOk), "ok");
  EXPECT_STREQ(engine::solve_status_name(engine::SolveStatus::kTimeout),
               "timeout");
  EXPECT_STREQ(engine::solve_status_name(engine::SolveStatus::kCancelled),
               "cancelled");
}

TEST(Guardrails, PreCancelledTokenShortCircuits) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  CancelToken token;
  token.cancel();
  const engine::SolveResult result =
      engine::solve(session, {.algorithm = "averaging", .R = 1}, &token);
  EXPECT_EQ(result.status, engine::SolveStatus::kCancelled);
  EXPECT_FALSE(result.has_solution);
  EXPECT_TRUE(result.x.empty());
  EXPECT_EQ(result.error, "operation cancelled");
  // The cancelled request must not poison the session: the next solve
  // matches a fresh session bitwise.
  const engine::SolveResult after =
      engine::solve(session, {.algorithm = "averaging", .R = 1});
  EXPECT_EQ(after.status, engine::SolveStatus::kOk);
  engine::Session fresh(instance);
  EXPECT_EQ(after.x,
            engine::solve(fresh, {.algorithm = "averaging", .R = 1}).x);
}

TEST(Guardrails, DeadlineTimesOutAndSessionStaysValid) {
  // 2500 agents × per-view LPs: far beyond a 1 ms budget, so the
  // deadline reliably fires at a cancellation checkpoint.
  const Instance instance =
      make_grid_instance({.dims = {50, 50}, .torus = true});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "averaging", .R = 1};
  request.deadline_ms = 1;
  const engine::SolveResult timed_out = engine::solve(session, request);
  ASSERT_EQ(timed_out.status, engine::SolveStatus::kTimeout);
  EXPECT_FALSE(timed_out.has_solution);
  EXPECT_TRUE(timed_out.x.empty());
  EXPECT_EQ(timed_out.error, "deadline exceeded");
  EXPECT_TRUE(timed_out.diagnostics.empty());

  // The caches-stay-valid invariant: the same request without the
  // deadline, on the SAME session, is bitwise-equal to a fresh run.
  request.deadline_ms = 0;
  const engine::SolveResult retried = engine::solve(session, request);
  ASSERT_EQ(retried.status, engine::SolveStatus::kOk);
  engine::Session fresh(instance);
  EXPECT_EQ(retried.x, engine::solve(fresh, request).x);
}

TEST(Guardrails, TimedOutIncrementalSolveLeavesMemoValid) {
  // The sharpest cache-validity case: a warmed incremental memo, a
  // delta, then a timeout that lands mid-splice. The half-mutated memo
  // must be invalid (not half-trusted), so the clean retry falls back
  // to a full solve and matches a fresh session bitwise.
  Instance instance = make_grid_instance({.dims = {50, 50}, .torus = true});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "averaging", .R = 1};
  request.incremental = true;
  ASSERT_EQ(engine::solve(session, request).status, engine::SolveStatus::kOk);

  // Edits scattered across the whole torus: the dirty region covers
  // most of the 2500 agents, so the splice costs roughly a full solve —
  // orders of magnitude beyond the 1 ms budget.
  InstanceDelta delta;
  for (std::int32_t e = 0; e < 40; ++e) {
    delta.set_usage((e * 61) % instance.num_resources(),
                    (e * 63) % instance.num_agents(), 0.5 + 0.01 * e);
  }
  session.apply(delta);

  request.deadline_ms = 1;
  const engine::SolveResult timed_out = engine::solve(session, request);
  ASSERT_EQ(timed_out.status, engine::SolveStatus::kTimeout);

  request.deadline_ms = 0;
  const engine::SolveResult retried = engine::solve(session, request);
  ASSERT_EQ(retried.status, engine::SolveStatus::kOk);
  engine::Session fresh(instance);
  EXPECT_EQ(retried.x, engine::solve(fresh, request).x);
}

TEST(Guardrails, NegativeDeadlineRejected) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "safe"};
  request.deadline_ms = -5;
  EXPECT_THROW((void)engine::solve(session, request), CheckError);
}

TEST(Guardrails, FaultPlanOnNonFaultableAlgorithmRejected) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "averaging"};
  request.fault_plan = "s1;0:crash:0";
  EXPECT_THROW((void)engine::solve(session, request), CheckError);
}

TEST(Guardrails, MalformedFaultPlanRejected) {
  const Instance instance = make_grid_instance({.dims = {4, 4}});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "selfstab-safe"};
  request.fault_plan = "0:crash:0";  // missing the s<seed> prefix
  EXPECT_THROW((void)engine::solve(session, request), CheckError);
}

TEST(Guardrails, SelfstabSolveRecoversAndReportsDiagnostics) {
  const Instance instance =
      make_grid_instance({.dims = {6, 6}, .torus = true});
  engine::Session session(instance);
  engine::SolveRequest request{.algorithm = "selfstab-averaging", .R = 1};
  request.fault_plan = "s9;0:crash:3;0:drop:5:4;1:state:7;2:corrupt:2:1";
  const engine::SolveResult result = engine::solve(session, request);
  ASSERT_EQ(result.status, engine::SolveStatus::kOk);
  EXPECT_GT(result.diagnostics.at("faulty_rounds"), 0.0);
  EXPECT_GT(result.diagnostics.at("faults_injected"), 0.0);
  EXPECT_EQ(result.diagnostics.at("horizon"), 3.0);  // 2R+1
  const double recovery = result.diagnostics.at("rounds_to_legitimate");
  EXPECT_GE(recovery, 0.0);
  EXPECT_LE(recovery, result.diagnostics.at("horizon") + 1.0);
  // The differential bar through the engine path.
  EXPECT_EQ(result.x, distributed_local_averaging(instance, {.R = 1}));
}

// ---------------------------------------------------------------------------
// apply() integrity spot-check
// ---------------------------------------------------------------------------

TEST(IntegrityFallback, CleanApplyVerifiesWithoutFallback) {
  Instance instance = make_grid_instance({.dims = {6, 6}});
  engine::Session session(instance);
  ASSERT_EQ(engine::solve(session, {.algorithm = "distributed-safe"}).status,
            engine::SolveStatus::kOk);
  InstanceDelta delta;
  delta.set_usage(0, 0, 0.5);
  const engine::Session::ApplyReport report = session.apply(delta);
  EXPECT_GT(report.verified_balls, 0u);
  EXPECT_FALSE(report.integrity_fallback);
  EXPECT_EQ(session.stats().integrity_fallbacks, 0);
}

TEST(IntegrityFallback, CorruptedCacheTriggersWholesaleFallback) {
  // Corrupt agent 0's cached radius-1 ball, then edit the FAR corner of
  // a non-torus grid so the surgical repair never touches agent 0: only
  // the integrity spot-check (which always samples agent 0) can notice.
  Instance instance = make_grid_instance({.dims = {6, 6}});
  engine::Session session(instance);
  ASSERT_EQ(engine::solve(session, {.algorithm = "distributed-safe"}).status,
            engine::SolveStatus::kOk);
  session.corrupt_cached_ball_for_test(1, false, 0);

  InstanceDelta delta;
  delta.set_usage(instance.num_resources() - 1, instance.num_agents() - 1,
                  0.9);
  const engine::Session::ApplyReport report = session.apply(delta);
  EXPECT_TRUE(report.integrity_fallback);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(session.stats().integrity_fallbacks, 1);

  // Cold but correct: the next solve rebuilds from scratch and matches
  // a fresh session over the mutated instance bitwise.
  const engine::SolveResult after =
      engine::solve(session, {.algorithm = "distributed-safe"});
  ASSERT_EQ(after.status, engine::SolveStatus::kOk);
  engine::Session fresh(instance);
  EXPECT_EQ(after.x,
            engine::solve(fresh, {.algorithm = "distributed-safe"}).x);
}

/// The integrity spot-check on an averaging session: warm every cache the
/// averaging solve reads (balls, ball positions, growth sets), let
/// `corrupt` damage one of them for agent 0, edit the far corner, and
/// expect the wholesale fallback, then a next solve equal to a fresh
/// session's bitwise.
void expect_averaging_fallback(
    const std::function<void(engine::Session&)>& corrupt) {
  Instance instance = make_grid_instance({.dims = {6, 6}});
  engine::Session session(instance);
  const engine::SolveRequest request{.algorithm = "averaging", .R = 1};
  ASSERT_EQ(engine::solve(session, request).status, engine::SolveStatus::kOk);
  corrupt(session);

  InstanceDelta delta;
  delta.set_usage(instance.num_resources() - 1, instance.num_agents() - 1,
                  0.9);
  const engine::Session::ApplyReport report = session.apply(delta);
  EXPECT_TRUE(report.integrity_fallback);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(session.stats().integrity_fallbacks, 1);

  const engine::SolveResult after = engine::solve(session, request);
  ASSERT_EQ(after.status, engine::SolveStatus::kOk);
  engine::Session fresh(instance);
  const engine::SolveResult expected = engine::solve(fresh, request);
  EXPECT_EQ(after.x, expected.x);
  EXPECT_EQ(after.omega, expected.omega);
}

TEST(IntegrityFallback, CorruptedCacheTriggersWholesaleFallbackForAveraging) {
  expect_averaging_fallback([](engine::Session& session) {
    session.corrupt_cached_ball_for_test(1, false, 0);
  });
}

TEST(IntegrityFallback, CorruptedBallPositionTriggersWholesaleFallback) {
  // The balls stay right: only the position-row check can notice.
  expect_averaging_fallback([](engine::Session& session) {
    session.corrupt_cached_position_for_test(1, false, 0);
  });
}

// ---------------------------------------------------------------------------
// Wire surface of the taxonomy
// ---------------------------------------------------------------------------

TEST(WireErrors, ErrorLineCarriesCodeAndLineNumber) {
  const std::string line =
      engine::error_to_json_line("timeout", "deadline exceeded", 7);
  EXPECT_NE(line.find("\"error\": \"deadline exceeded\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"code\": \"timeout\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"line\": 7"), std::string::npos) << line;
}

TEST(WireErrors, ResultLineCarriesStatus) {
  engine::SolveResult result;
  result.algorithm = "averaging";
  result.status = engine::SolveStatus::kOk;
  const std::string ok = engine::result_to_json_line(result, "1", false);
  EXPECT_NE(ok.find("\"status\": \"ok\""), std::string::npos) << ok;

  result.status = engine::SolveStatus::kTimeout;
  result.error = "deadline exceeded";
  const std::string timed_out =
      engine::result_to_json_line(result, "1", false);
  EXPECT_NE(timed_out.find("\"status\": \"timeout\""), std::string::npos)
      << timed_out;
  EXPECT_NE(timed_out.find("\"error\": \"deadline exceeded\""),
            std::string::npos)
      << timed_out;
}

}  // namespace
}  // namespace mmlp
