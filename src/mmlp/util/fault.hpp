// Deterministic, replayable fault injection for the self-stabilizing
// solvers.
//
// A FaultPlan is data, not behaviour: a seed plus an explicit list of
// fault events, each pinned to a synchronous round. The same plan
// applied to the same instance produces the same faulty execution bit
// for bit — on any thread count — because every random choice a fault
// makes (which ghost id a corrupted packet gains, which entries a state
// corruption rewrites) is derived by hashing (seed, round, agent, peer)
// rather than drawn from a shared stream. That makes a fault schedule a
// first-class test vector: serialize() renders it as one compact token
// (`s<seed>;<round>:<kind>:<agent>[:<peer>];...`) that travels through
// the JSONL wire, `mmlp_batch --fault-plan`, and bench configs, and
// parse() reproduces it exactly.
//
// Fault taxonomy (docs/ARCHITECTURE.md "Fault model & recovery"):
//
//   drop     message from peer→agent in round r is lost
//   dup      the same message is delivered twice
//   corrupt  the message payload is adversarially mutated in flight
//   delay    the receiver gets the sender's *previous* round state
//   crash    agent restarts at round r with cleared local state
//   state    agent's local state is adversarially mutated at round r
//
// The injector is consulted by exactly one message exchange,
// SelfStabilizingFlood::step(faults, round): message fates are pure
// lookups (parallel-safe), state-level faults are applied serially at
// round start (a crashed agent's table is emptied, so it forwards
// nothing that round). Counters report what was actually injected.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {

enum class FaultKind : std::uint8_t {
  kDropMessage = 0,
  kDuplicateMessage,
  kCorruptMessage,
  kDelayMessage,
  kCrashAgent,
  kCorruptState,
};

/// Stable token for a kind (the serialization / wire vocabulary).
std::string_view fault_kind_name(FaultKind kind);

/// One scheduled fault. Message faults name the receiving `agent` and
/// the sending `peer`; crash/state faults name only the victim `agent`
/// (peer = -1).
struct FaultEvent {
  std::int32_t round = 0;
  FaultKind kind = FaultKind::kDropMessage;
  AgentId agent = 0;
  AgentId peer = -1;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A complete, replayable fault schedule.
struct FaultPlan {
  std::uint64_t seed = 0;          ///< drives all corruption randomness
  std::vector<FaultEvent> events;  ///< normalized: sorted by round

  bool empty() const { return events.empty(); }

  /// Rounds the plan spans: 1 + max event round (0 when empty). A
  /// faulty execution runs at least this many rounds so every scheduled
  /// event fires.
  std::int32_t rounds() const;

  /// Sort events by (round, agent, peer, kind) — parse/random emit
  /// normalized plans already; call after hand-building one.
  void normalize();

  /// Compact single-token form: `s<seed>` followed by
  /// `;<round>:<kind>:<agent>` or `;<round>:<kind>:<agent>:<peer>` per
  /// event, e.g. "s42;0:drop:5:2;1:crash:7;2:state:3". Stable under
  /// parse ∘ serialize.
  std::string serialize() const;

  /// Inverse of serialize(). Throws CheckError on malformed input
  /// (unknown kind, missing peer on a message fault, non-numeric
  /// fields, negative rounds/agents).
  static FaultPlan parse(std::string_view text);

  /// A random plan: `count` events over `rounds` rounds against
  /// `num_agents` agents, kinds drawn uniformly from the full taxonomy.
  /// Message faults pick peer != agent when num_agents > 1. Fully
  /// determined by (seed, rounds, num_agents, count).
  static FaultPlan random(std::uint64_t seed, std::int32_t rounds,
                          std::int32_t num_agents, std::int32_t count);
};

/// Executes a FaultPlan against a synchronous round loop. The runtime
/// calls begin_round(r) once per round (serial), then consults the
/// per-message / per-agent queries from its (possibly parallel) merge
/// loop. All queries are pure functions of (plan, round, ids), so a
/// parallel exchange stays deterministic.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Position the injector on round `r` and count the round's
  /// crash/state events as injected. Rounds may be revisited (the
  /// cursor is recomputed, not advanced).
  void begin_round(std::int32_t round);

  std::int32_t round() const { return round_; }

  /// True when the current round has any delay event (the exchange then
  /// needs the previous round's state snapshot).
  bool round_has_delay() const;

  /// What happens to the packet sender→receiver this round. copies: 0
  /// (dropped), 1 (normal), 2 (duplicated); corrupt/delay flag payload
  /// mutation / stale delivery. Counts message faults as injected
  /// (atomically — callers run in parallel loops).
  struct MessageFate {
    std::int32_t copies = 1;
    bool corrupt = false;
    bool delay = false;
  };
  MessageFate message_fate(AgentId receiver, AgentId sender) const;

  /// Crash-and-restart scheduled for `agent` at the current round: the
  /// runtime must reset the agent's local state to its cold-start value
  /// before the exchange.
  bool crashed(AgentId agent) const;

  /// Adversarial state corruption scheduled for `agent` at the current
  /// round.
  bool state_corrupted(AgentId agent) const;

  /// Deterministic per-event randomness: a generator seeded by hashing
  /// (plan seed, round, agent, peer). Two calls with the same triple
  /// yield identical streams, so corruption values are replayable and
  /// thread-invariant.
  Rng event_rng(AgentId agent, AgentId peer = -1) const;

  /// Total faults injected so far (events whose round was entered, plus
  /// message fates actually served with a fault).
  std::int64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  std::int32_t round_ = -1;
  std::size_t round_begin_ = 0;  // events_[round_begin_, round_end_)
  std::size_t round_end_ = 0;
  mutable std::atomic<std::int64_t> injected_{0};
};

}  // namespace mmlp
