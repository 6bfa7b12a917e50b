// Self-stabilizing flooding (the Section 1.1 claim that local
// algorithms yield self-stabilizing algorithms with constant
// stabilization time).
//
// Every agent maintains a table of (origin, hop distance) entries with
// distances bounded by the horizon. A synchronous step recomputes each
// table *from scratch* out of the neighbours' tables:
//
//   table_v ← {(v, 0)} ∪ min-merge{ (o, d+1) : (o, d) ∈ table_u,
//                                   u neighbour of v, d + 1 ≤ horizon }
//
// Because nothing of the old local state survives a step, the rule is
// self-stabilizing: after one round every distance-0 entry is a true
// self entry, and inductively after k rounds every entry with d < k is
// correct while corrupted "ghost" entries can only age (their distance
// grows each round) until they exceed the horizon and vanish. From ANY
// state the legitimate state — table_v = {(o, d_H(v,o)) : d ≤ horizon},
// the fixed point of the rule — is reached within horizon + 1 rounds,
// a constant independent of the network size.
//
// The flood borrows its communication graph: the caller keeps the
// Hypergraph alive and unchanged for the flood's lifetime. The graph
// carries the hypergraph mode (full or collaboration-oblivious).
// SelfStabilizingSolver passes the session's cached graph, so a flood
// must not outlive a structural Session::apply, which overwrites that
// graph (or drops it when ids are remapped). Tests and harnesses build
// the graph once and pass it in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/graph/hypergraph.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {

class ThreadPool;  // util/parallel.hpp

/// Bandwidth of `rounds` flooding rounds over h: one message per (agent,
/// incident hyperedge, round), i.e. rounds · Σ_v deg(v).
std::int64_t message_count(const Hypergraph& h, std::int32_t rounds);

class SelfStabilizingFlood {
 public:
  /// Starts in the legitimate state for the given knowledge horizon on
  /// `graph`, which the flood borrows (see the file comment). Both
  /// per-agent loops (the legitimate tables, built by for_each_ball, and
  /// each step) run on `pool` (nullptr = the process-global pool).
  SelfStabilizingFlood(const Hypergraph& graph, std::int32_t horizon,
                       ThreadPool* pool = nullptr);
  /// A temporary graph would dangle.
  SelfStabilizingFlood(Hypergraph&&, std::int32_t, ThreadPool* = nullptr) =
      delete;

  std::int32_t horizon() const { return horizon_; }
  const Hypergraph& graph() const { return *graph_; }

  /// Cold start: erase every table (the all-empty transient state).
  void clear();

  /// Jump directly to the legitimate state.
  void reset_legitimate();

  /// Adversarial corruption: apply `entries` random table mutations
  /// (overwrite an (origin, distance) entry or delete one), driven by
  /// the caller's rng for reproducibility.
  void corrupt(Rng& rng, std::int32_t entries);

  /// Maximal adversarial corruption: replace EVERY table with a fully
  /// random one (random size, random in-range origins and distances) —
  /// nothing of the legitimate state survives. The strongest transient
  /// state the stabilization contract must recover from.
  void corrupt_all(Rng& rng);

  /// One synchronous round of the recompute rule. Returns the number of
  /// agents whose table changed (0 ⇔ a fixed point, i.e. legitimacy).
  std::int32_t step();

  /// One synchronous round exchanged through `faults` as round `round`
  /// of its plan (nullptr = fault-free, identical to step()). This is
  /// the only exchange that consumes a FaultPlan. At round start a
  /// crashed agent restarts cold with an empty table, so its packet
  /// this round is empty (the recompute rule regrows its own table in
  /// the same round), and a state corruption applies 1–4 random table
  /// mutations. Message fates apply per (receiver, sender) packet during
  /// the recompute merge; delay delivers the sender's start-of-previous-
  /// round table. Deterministic on any thread count: all fault
  /// randomness comes from the injector's per-event derived streams.
  std::int32_t step(FaultInjector* faults, std::int32_t round);

  /// Step until a round changes nothing, executing at most `max_rounds`
  /// rounds. Returns the number of rounds executed.
  std::int32_t run_until_stable(std::int32_t max_rounds);

  /// True iff every table equals the legitimate table.
  bool is_legitimate() const;

  /// The origins agent v currently knows, sorted ascending. Once the
  /// tables are legitimate this is ball(graph(), v, horizon()).
  std::vector<AgentId> knowledge(AgentId v) const;

  /// As knowledge(v), written into `buffer`; returns a view of it. This
  /// is the knowledge source SelfStabilizingSolver gives run_local.
  std::span<const AgentId> knowledge(AgentId v,
                                     std::vector<AgentId>& buffer) const;

 private:
  struct Entry {
    AgentId origin = -1;
    std::int32_t dist = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  using Table = std::vector<Entry>;  // sorted by origin

  /// Draw a random (origin, distance) entry from `rng` — origin first,
  /// then distance, the order FaultPlan replays depend on — and insert
  /// it into `table`, overwriting the entry of the same origin.
  void insert_ghost(Table& table, Rng& rng) const;

  ThreadPool* pool_;
  const Hypergraph* graph_;
  std::int32_t horizon_ = 0;
  std::vector<Table> tables_;
  std::vector<Table> legitimate_;  // the fixed point, precomputed once
  /// Start-of-previous-round tables, maintained only across faulty
  /// steps whose plan contains delay events (what a delayed packet
  /// delivers).
  std::vector<Table> stale_;
};

}  // namespace mmlp
