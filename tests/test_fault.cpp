// The fault-injection substrate: FaultPlan as a replayable test vector
// (serialize ∘ parse identity, loud rejection of malformed tokens,
// deterministic random plans) and the injector's per-round semantics —
// message fates, crash/state flags, drop-beats-dup — plus the one
// faulty exchange, SelfStabilizingFlood::step(faults, round): what a
// drop or a crash does to the tables, and that an empty plan is bitwise
// identical to a fault-free round.
#include "mmlp/util/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mmlp/dist/self_stabilize.hpp"
#include "mmlp/gen/grid.hpp"
#include "mmlp/util/check.hpp"
#include "test_helpers.hpp"

namespace mmlp {
namespace {

TEST(FaultPlan, SerializeParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 42;
  plan.events = {
      {.round = 0, .kind = FaultKind::kDropMessage, .agent = 5, .peer = 2},
      {.round = 1, .kind = FaultKind::kCrashAgent, .agent = 7},
      {.round = 2, .kind = FaultKind::kCorruptState, .agent = 3},
      {.round = 2, .kind = FaultKind::kDelayMessage, .agent = 1, .peer = 0},
      {.round = 3, .kind = FaultKind::kDuplicateMessage, .agent = 0, .peer = 4},
      {.round = 3, .kind = FaultKind::kCorruptMessage, .agent = 9, .peer = 8},
  };
  plan.normalize();
  const std::string token = plan.serialize();
  const FaultPlan parsed = FaultPlan::parse(token);
  EXPECT_EQ(parsed.seed, plan.seed);
  EXPECT_EQ(parsed.events, plan.events);
  // The token is stable: parse ∘ serialize is the identity on tokens too.
  EXPECT_EQ(parsed.serialize(), token);
}

TEST(FaultPlan, SerializeUsesTheDocumentedGrammar) {
  FaultPlan plan;
  plan.seed = 7;
  plan.events = {
      {.round = 0, .kind = FaultKind::kDropMessage, .agent = 3, .peer = 5},
      {.round = 1, .kind = FaultKind::kCrashAgent, .agent = 2},
  };
  EXPECT_EQ(plan.serialize(), "s7;0:drop:3:5;1:crash:2");
  EXPECT_EQ(FaultPlan{}.serialize(), "s0");
}

TEST(FaultPlan, MalformedTokensAreCheckErrors) {
  const std::vector<std::string> malformed = {
      "",                   // no seed prefix
      "x7;0:drop:3:5",      // wrong prefix letter
      "s",                  // empty seed
      "sfoo",               // non-numeric seed
      "s-3",                // negative seed
      "s7;0:drop:3",        // message fault without a peer
      "s7;0:crash:3:5",     // agent fault with a peer
      "s7;0:flood:3:5",     // unknown kind
      "s7;-1:drop:3:5",     // negative round
      "s7;0:drop:-3:5",     // negative agent
      "s7;0:drop:3:-5",     // negative peer
      "s7;0:drop",          // too few fields
      "s7;0:drop:3:5:9",    // too many fields
      "s7;zero:drop:3:5",   // non-numeric round
      "s7;;1:crash:2",      // empty event
  };
  for (const std::string& token : malformed) {
    EXPECT_THROW((void)FaultPlan::parse(token), CheckError) << token;
  }
}

TEST(FaultPlan, RoundsSpansTheLastEvent) {
  EXPECT_EQ(FaultPlan{}.rounds(), 0);
  EXPECT_EQ(FaultPlan::parse("s1;4:crash:0").rounds(), 5);
  EXPECT_EQ(FaultPlan::parse("s1;0:drop:1:0;2:state:1").rounds(), 3);
}

TEST(FaultPlan, RandomIsDeterministicAndInRange) {
  const FaultPlan a = FaultPlan::random(99, 4, 10, 25);
  const FaultPlan b = FaultPlan::random(99, 4, 10, 25);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.events.size(), 25u);
  for (const FaultEvent& event : a.events) {
    EXPECT_GE(event.round, 0);
    EXPECT_LT(event.round, 4);
    EXPECT_GE(event.agent, 0);
    EXPECT_LT(event.agent, 10);
    if (event.peer != -1) {
      EXPECT_NE(event.peer, event.agent);  // no self-messages faulted
      EXPECT_LT(event.peer, 10);
    }
  }
  // A different seed produces a different schedule.
  EXPECT_NE(FaultPlan::random(100, 4, 10, 25).events, a.events);
  // Random plans survive the wire round-trip too.
  EXPECT_EQ(FaultPlan::parse(a.serialize()).events, a.events);
}

TEST(FaultInjector, CrashAndStateFlagsFireOnTheirRoundOnly) {
  FaultInjector faults(FaultPlan::parse("s1;1:crash:3;2:state:5"));
  faults.begin_round(0);
  EXPECT_FALSE(faults.crashed(3));
  EXPECT_FALSE(faults.state_corrupted(5));
  faults.begin_round(1);
  EXPECT_TRUE(faults.crashed(3));
  EXPECT_FALSE(faults.crashed(5));
  EXPECT_FALSE(faults.state_corrupted(3));
  faults.begin_round(2);
  EXPECT_FALSE(faults.crashed(3));
  EXPECT_TRUE(faults.state_corrupted(5));
  // Rounds may be revisited — the cursor is recomputed, not advanced.
  faults.begin_round(1);
  EXPECT_TRUE(faults.crashed(3));
}

TEST(FaultInjector, MessageFatesMatchThePlan) {
  FaultInjector faults(
      FaultPlan::parse("s1;0:drop:2:1;0:dup:4:3;0:corrupt:6:5;0:delay:8:7"));
  faults.begin_round(0);
  EXPECT_EQ(faults.message_fate(2, 1).copies, 0);
  EXPECT_EQ(faults.message_fate(4, 3).copies, 2);
  EXPECT_TRUE(faults.message_fate(6, 5).corrupt);
  EXPECT_TRUE(faults.message_fate(8, 7).delay);
  EXPECT_TRUE(faults.round_has_delay());
  // Direction matters: the reversed packet is unharmed.
  const FaultInjector::MessageFate reversed = faults.message_fate(1, 2);
  EXPECT_EQ(reversed.copies, 1);
  EXPECT_FALSE(reversed.corrupt);
  EXPECT_FALSE(reversed.delay);
  faults.begin_round(1);
  EXPECT_EQ(faults.message_fate(2, 1).copies, 1);
  EXPECT_FALSE(faults.round_has_delay());
}

TEST(FaultInjector, DropBeatsDuplicateAndSuppressesTheRest) {
  // All four fates on the same packet: the packet is simply lost.
  FaultInjector faults(
      FaultPlan::parse("s1;0:drop:2:1;0:dup:2:1;0:corrupt:2:1;0:delay:2:1"));
  faults.begin_round(0);
  const FaultInjector::MessageFate fate = faults.message_fate(2, 1);
  EXPECT_EQ(fate.copies, 0);
  EXPECT_FALSE(fate.corrupt);
  EXPECT_FALSE(fate.delay);
}

TEST(FaultInjector, CountsInjectedFaults) {
  FaultInjector faults(FaultPlan::parse("s1;0:crash:0;0:drop:2:1;1:state:3"));
  EXPECT_EQ(faults.faults_injected(), 0);
  faults.begin_round(0);
  EXPECT_EQ(faults.faults_injected(), 1);  // the crash fires on entry
  (void)faults.message_fate(2, 1);
  EXPECT_EQ(faults.faults_injected(), 2);  // the drop was served
  (void)faults.message_fate(5, 4);  // unfaulted packet: no count
  EXPECT_EQ(faults.faults_injected(), 2);
  faults.begin_round(1);
  EXPECT_EQ(faults.faults_injected(), 3);
}

TEST(FaultInjector, EventRngIsReplayableAndPerEventIndependent) {
  FaultInjector faults(FaultPlan::parse("s5;0:corrupt:2:1"));
  faults.begin_round(0);
  Rng a = faults.event_rng(2, 1);
  Rng b = faults.event_rng(2, 1);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different (agent, peer) → an independent stream.
  Rng c = faults.event_rng(1, 2);
  Rng d = faults.event_rng(2, 1);
  EXPECT_NE(c.next_u64(), d.next_u64());
}

// ---------------------------------------------------------------------------
// The faulty exchange: SelfStabilizingFlood::step(faults, round)
// ---------------------------------------------------------------------------

/// A flood in the flooding initial state (every agent knows only
/// itself): a cold start, then one fault-free round.
SelfStabilizingFlood self_only_flood(const Hypergraph& graph,
                                     std::int32_t horizon) {
  SelfStabilizingFlood flood(graph, horizon);
  flood.clear();
  flood.step();
  return flood;
}

TEST(FaultFlood, EmptyPlanMatchesFaultFreeStepBitwise) {
  // From the same corrupted state, a round through an empty plan and a
  // fault-free round produce the same tables and the same change count.
  const auto instance = make_grid_instance({.dims = {5, 5}, .torus = true});
  const Hypergraph h = instance.communication_graph();
  SelfStabilizingFlood with_plan(h, 3);
  SelfStabilizingFlood fault_free(h, 3);
  Rng rng_a(8);
  Rng rng_b(8);
  with_plan.corrupt(rng_a, 40);
  fault_free.corrupt(rng_b, 40);
  FaultInjector empty{FaultPlan{}};
  for (std::int32_t round = 0; round < 3; ++round) {
    EXPECT_EQ(with_plan.step(&empty, round), fault_free.step());
    for (AgentId v = 0; v < instance.num_agents(); ++v) {
      ASSERT_EQ(with_plan.knowledge(v), fault_free.knowledge(v))
          << "agent " << v << " round " << round;
    }
  }
  EXPECT_EQ(empty.faults_injected(), 0);
}

TEST(FaultFlood, DroppedPacketsLoseKnowledge) {
  // A 3-node path 0–1–2; dropping every packet into agent 1 for two
  // rounds leaves agent 1 knowing only itself — and since agent 1 is
  // the relay, agent 0 never hears about agent 2 either.
  const Hypergraph h = testing::path_instance(3).communication_graph();
  SelfStabilizingFlood flood = self_only_flood(h, 2);
  FaultInjector faults(
      FaultPlan::parse("s1;0:drop:1:0;0:drop:1:2;1:drop:1:0;1:drop:1:2"));
  for (std::int32_t round = 0; round < 2; ++round) {
    flood.step(&faults, round);
  }
  EXPECT_EQ(flood.knowledge(0), (std::vector<AgentId>{0, 1}));
  EXPECT_EQ(flood.knowledge(1), (std::vector<AgentId>{1}));
  EXPECT_EQ(flood.knowledge(2), (std::vector<AgentId>{1, 2}));
  // Two fault-free rounds reach the full path.
  SelfStabilizingFlood clean = self_only_flood(h, 2);
  clean.step();
  clean.step();
  EXPECT_EQ(clean.knowledge(0), (std::vector<AgentId>{0, 1, 2}));
}

TEST(FaultFlood, CrashShrinksTheVictimsPacket) {
  // A crash empties the victim's table BEFORE the exchange, so its
  // round-1 packet is empty: on the path 0–1–2–3–4, crashing the relay
  // (agent 1) at round 1 leaves agent 0 knowing only itself.
  const Hypergraph h = testing::path_instance(5).communication_graph();
  SelfStabilizingFlood flood = self_only_flood(h, 2);
  FaultInjector faults(FaultPlan::parse("s1;1:crash:1"));
  for (std::int32_t round = 0; round < 2; ++round) {
    flood.step(&faults, round);
  }
  EXPECT_EQ(flood.knowledge(0), (std::vector<AgentId>{0}));
  // The recompute rule regrows the crashed agent's own table from its
  // neighbours' packets in the same round.
  EXPECT_EQ(flood.knowledge(1), (std::vector<AgentId>{0, 1, 2, 3}));
  // Agent 2 lost agent 1's entry with the empty packet.
  EXPECT_EQ(flood.knowledge(2), (std::vector<AgentId>{2, 3, 4}));
  // The far end of the path is out of the blast radius.
  EXPECT_EQ(flood.knowledge(4), (std::vector<AgentId>{2, 3, 4}));
}

}  // namespace
}  // namespace mmlp
