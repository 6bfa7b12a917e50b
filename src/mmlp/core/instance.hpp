// The max-min LP instance of Section 1.2, eq. (1):
//
//   maximise  ω = min_{k∈K} Σ_{v∈V} c_kv x_v
//   s.t.      Σ_{v∈V} a_iv x_v ≤ 1  for each i ∈ I,   x_v ≥ 0.
//
// V are agents, I resources, K beneficiary parties. All coefficients are
// nonnegative and the support sets V_i = {v : a_iv > 0},
// V_k = {v : c_kv > 0}, I_v = {i : a_iv > 0}, K_v = {k : c_kv > 0} are
// stored explicitly in both directions. The standing assumptions of the
// paper — I_v, V_i, V_k nonempty — are enforced by
// validate()/Builder::build().
//
// Storage is flat CSR (compressed sparse row), one block per direction:
// a single contiguous Coef array ordered row-by-row plus an offset array
// with row r occupying data[offsets[r] .. offsets[r+1]). The support-set
// traversals that dominate the local algorithms (eq. (2) scans I_v then
// |V_i|; the view extraction of Section 5 walks whole balls of supports)
// therefore stream through memory instead of chasing one heap pointer
// per support list. Accessors return std::span views into the blocks;
// entries within a row are sorted by id.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "mmlp/graph/hypergraph.hpp"

namespace mmlp {

using AgentId = std::int32_t;
using ResourceId = std::int32_t;
using PartyId = std::int32_t;

/// One sparse coefficient: the id is an agent, resource, or party index
/// depending on which support list holds it.
struct Coef {
  std::int32_t id = 0;
  double value = 0.0;

  friend bool operator==(const Coef&, const Coef&) = default;
};

/// Non-owning view of one CSR row (one support set with coefficients).
using CoefSpan = std::span<const Coef>;

/// Support-set size bounds of Section 1.2.
struct DegreeBounds {
  std::size_t delta_I_of_V = 0;  ///< Δ_V^I = max_v |I_v|
  std::size_t delta_K_of_V = 0;  ///< Δ_V^K = max_v |K_v|
  std::size_t delta_V_of_I = 0;  ///< Δ_I^V = max_i |V_i|
  std::size_t delta_V_of_K = 0;  ///< Δ_K^V = max_k |V_k|
};

/// A batch of edits against an existing Instance (the mutation unit of
/// the engine's update pipeline). Coefficient edits with value > 0 set
/// or insert the entry; erase_* record a removal. Entity additions
/// append fresh ids at the end; agent removals compact the id space
/// (see Instance::apply for the exact semantics and the remap).
struct InstanceDelta {
  /// One coefficient edit: row is a resource (usages) or party
  /// (benefits) id; value == 0 marks an erase.
  struct CoefEdit {
    std::int32_t row = 0;
    AgentId v = 0;
    double value = 0.0;
  };

  std::vector<CoefEdit> usages;
  std::vector<CoefEdit> benefits;
  AgentId new_agents = 0;
  ResourceId new_resources = 0;
  PartyId new_parties = 0;
  std::vector<AgentId> removed_agents;

  InstanceDelta& set_usage(ResourceId i, AgentId v, double a);
  InstanceDelta& erase_usage(ResourceId i, AgentId v);
  InstanceDelta& set_benefit(PartyId k, AgentId v, double c);
  InstanceDelta& erase_benefit(PartyId k, AgentId v);
  InstanceDelta& add_agents(AgentId count);
  InstanceDelta& add_resources(ResourceId count);
  InstanceDelta& add_parties(PartyId count);
  InstanceDelta& remove_agent(AgentId v);

  bool empty() const {
    return usages.empty() && benefits.empty() && new_agents == 0 &&
           new_resources == 0 && new_parties == 0 && removed_agents.empty();
  }
};

/// What Instance::apply did, in terms the caches above it need: the new
/// revision, whether any support-set membership changed (the
/// communication hypergraph differs), whether ids were remapped
/// (removals compacted the id space), and the sorted set of agents
/// incident to any edit — for a pure value edit just the edited agent;
/// for a membership edit the agent plus the old and new members of
/// every edited support row. `touched` is in post-apply ids and is
/// constructed so that any vertex whose radius-r ball changed — under
/// the old or the new hypergraph — lies within distance r of it (every
/// removed adjacency has both endpoints in `touched`), which is what
/// makes single-BFS dirty regions sound. Empty when `remapped` (callers
/// fall back to full invalidation).
struct DeltaEffect {
  std::uint64_t revision = 0;
  bool structural = false;
  bool remapped = false;
  std::vector<AgentId> touched;
  /// Old agent id -> new id (-1 removed); filled only when `remapped`.
  std::vector<AgentId> agent_remap;
};

class Instance {
 public:
  class Builder;

  AgentId num_agents() const { return static_cast<AgentId>(agent_resources_.num_rows()); }
  ResourceId num_resources() const { return static_cast<ResourceId>(resource_support_.num_rows()); }
  PartyId num_parties() const { return static_cast<PartyId>(party_support_.num_rows()); }

  // The row accessors are inline (the eq. (1) sweep calls them once
  // per row); each checks its id and throws CheckError when it is out
  // of range.

  /// V_i with coefficients a_iv (sorted by agent id).
  CoefSpan resource_support(ResourceId i) const {
    return resource_support_.row(checked_row(resource_support_, i, kResourceRange));
  }
  /// V_k with coefficients c_kv (sorted by agent id).
  CoefSpan party_support(PartyId k) const {
    return party_support_.row(checked_row(party_support_, k, kPartyRange));
  }
  /// I_v with coefficients a_iv (sorted by resource id).
  CoefSpan agent_resources(AgentId v) const {
    return agent_resources_.row(checked_row(agent_resources_, v, kAgentRange));
  }
  /// K_v with coefficients c_kv (sorted by party id).
  CoefSpan agent_parties(AgentId v) const {
    return agent_parties_.row(checked_row(agent_parties_, v, kAgentRange));
  }

  /// |V_i| in O(1) (offset difference; no span construction).
  std::size_t resource_support_size(ResourceId i) const {
    return resource_support_.row_size(checked_row(resource_support_, i, kResourceRange));
  }
  /// |V_k| in O(1).
  std::size_t party_support_size(PartyId k) const {
    return party_support_.row_size(checked_row(party_support_, k, kPartyRange));
  }

  /// a_iv (0 when v is not in V_i).
  double usage(ResourceId i, AgentId v) const;
  /// c_kv (0 when v is not in V_k).
  double benefit(PartyId k, AgentId v) const;

  DegreeBounds degree_bounds() const;

  /// Communication hypergraph H of Section 1.4: one hyperedge per V_i and
  /// (unless collaboration_oblivious) one per V_k. Nodes are agents.
  Hypergraph communication_graph(bool collaboration_oblivious = false) const;

  /// Enforce the standing assumptions; throws CheckError on violation.
  void validate() const;

  /// Monotonically increasing mutation counter: 0 for a freshly built
  /// instance, bumped by every successful apply(). Caches key their
  /// validity on it (engine::Session stamps every cached structure with
  /// the revision it was derived from).
  std::uint64_t revision() const { return revision_; }

  /// Apply a batch of edits. Pure value changes of existing entries are
  /// written into the CSR blocks in place (O(log row) per edit);
  /// anything that changes support-set membership — insertions, erases,
  /// entity additions or removals — goes through a compacting rebuild of
  /// all four blocks (the same counting-sort path as Builder::build, so
  /// the mutated instance is block-for-block identical to building the
  /// edited coefficient set from scratch). Agent removals drop the
  /// agent's entries, compact agent ids downwards order-preservingly,
  /// and cascade-remove any resource or party whose support becomes
  /// empty (their id spaces compact the same way). Throws CheckError —
  /// before any mutation is committed — on out-of-range ids, erases of
  /// absent entries, non-positive set_* values, or edits that would
  /// leave a nonempty-support assumption violated; validate() holds
  /// after every successful apply.
  DeltaEffect apply(const InstanceDelta& delta);

  /// Total number of nonzero coefficients (|A| + |C| sparsity).
  std::size_t num_nonzeros() const;

  /// Plain-text round-trip format: a header `mmlp <agents> <resources>
  /// <parties>`, then one record per nonzero, `a <i> <v> <a_iv>` or
  /// `c <k> <v> <c_kv>`, resources before parties, rows and ids
  /// ascending, one record per line.
  ///
  /// deserialize() reads the text in place (util/text.hpp) and accepts
  /// any whitespace (' ', '\t'..'\r', so CRLF too) between tokens, with
  /// or without a final newline. Ids and counts are decimal int32; a
  /// coefficient is a decimal double ("2", "0.5", ".5", "5.", "1e-3").
  /// A single leading '+' is allowed on any number. Each number must
  /// fill its whole token and be finite and in range: inf, nan, hex
  /// floats, "1.0x", "1,5", 1e400 and 1e-400 (which rounds to zero) are
  /// rejected with a CheckError, as is a truncated record.
  ///
  /// serialize() writes each coefficient in its shortest round-trip form
  /// (std::to_chars: 0.1, not 0.10000000000000001), so deserialize()
  /// gives back the same bits and serialize() ∘ deserialize() is the
  /// identity on its own output.
  std::string serialize() const;
  static Instance deserialize(std::string_view text);

  friend bool operator==(const Instance&, const Instance&);

 private:
  /// One direction of the sparse coefficient matrix: row r (a resource,
  /// party, or agent) owns data[offsets[r] .. offsets[r+1]), sorted by id.
  struct CsrBlock {
    std::vector<std::size_t> offsets{0};  ///< num_rows + 1 entries
    std::vector<Coef> data;

    std::size_t num_rows() const { return offsets.size() - 1; }
    std::size_t row_size(std::size_t r) const { return offsets[r + 1] - offsets[r]; }
    CoefSpan row(std::size_t r) const {
      return {data.data() + offsets[r], offsets[r + 1] - offsets[r]};
    }

    friend bool operator==(const CsrBlock&, const CsrBlock&) = default;
  };

  static constexpr const char* kResourceRange = "resource index out of range: i=";
  static constexpr const char* kPartyRange = "party index out of range: k=";
  static constexpr const char* kAgentRange = "agent index out of range: v=";

  /// Throws the CheckError "<what><id>, have <rows>".
  [[noreturn]] static void row_out_of_range(const char* what, std::int32_t id,
                                            std::size_t rows);

  /// `id` as a row of `block`, or row_out_of_range. A negative id wraps
  /// to a huge unsigned row, so one comparison checks both ends.
  static std::size_t checked_row(const CsrBlock& block, std::int32_t id,
                                 const char* what) {
    const auto row = static_cast<std::size_t>(id);
    if (row >= block.num_rows()) [[unlikely]] {
      row_out_of_range(what, id, block.num_rows());
    }
    return row;
  }

  CsrBlock resource_support_;  // i -> (v, a_iv)
  CsrBlock party_support_;     // k -> (v, c_kv)
  CsrBlock agent_resources_;   // v -> (i, a_iv)
  CsrBlock agent_parties_;     // v -> (k, c_kv)
  std::uint64_t revision_ = 0;  // not part of equality/serialization
};

/// Incremental construction with validation at build().
class Instance::Builder {
 public:
  /// Pre-declare entity counts (further adds extend them).
  Builder& reserve(AgentId agents, ResourceId resources, PartyId parties);

  /// Pre-size the coefficient buffers (pure capacity hint).
  Builder& reserve_nonzeros(std::size_t usages, std::size_t benefits);

  AgentId add_agent();
  ResourceId add_resource();
  PartyId add_party();

  /// Set a_iv > 0. Duplicate (i, v) pairs are rejected at build().
  Builder& set_usage(ResourceId i, AgentId v, double a);
  /// Set c_kv > 0.
  Builder& set_benefit(PartyId k, AgentId v, double c);

  /// Validate and produce the instance.
  Instance build() &&;

 private:
  AgentId num_agents_ = 0;
  ResourceId num_resources_ = 0;
  PartyId num_parties_ = 0;
  std::vector<std::tuple<ResourceId, AgentId, double>> usages_;
  std::vector<std::tuple<PartyId, AgentId, double>> benefits_;
};

}  // namespace mmlp
