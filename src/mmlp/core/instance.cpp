// CSR construction and the standing-assumption checks of Section 1.2.
//
// Builder::build() performs a two-pass counting-sort scatter per
// direction (count row sizes, prefix-sum into offsets, scatter the
// coefficient tuples), then sorts each row segment by id in place — no
// per-row heap allocation anywhere. Duplicate (row, id) pairs and
// non-positive coefficients are rejected with the offending ids in the
// message, so a bad entry inside a million-agent generated instance is
// still attributable.
#include "mmlp/core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/text.hpp"

namespace mmlp {

namespace {

double lookup(CoefSpan support, std::int32_t id) {
  const auto it = std::lower_bound(
      support.begin(), support.end(), id,
      [](const Coef& entry, std::int32_t target) { return entry.id < target; });
  if (it != support.end() && it->id == id) {
    return it->value;
  }
  return 0.0;
}

}  // namespace

void Instance::row_out_of_range(const char* what, std::int32_t id,
                                std::size_t rows) {
  std::ostringstream message;
  message << what << id << ", have " << rows;
  detail::check_failed("0 <= id < rows", __FILE__, __LINE__, message.str());
}

double Instance::usage(ResourceId i, AgentId v) const {
  return lookup(resource_support(i), v);
}

double Instance::benefit(PartyId k, AgentId v) const {
  return lookup(party_support(k), v);
}

DegreeBounds Instance::degree_bounds() const {
  DegreeBounds bounds;
  for (std::size_t v = 0; v < agent_resources_.num_rows(); ++v) {
    bounds.delta_I_of_V = std::max(bounds.delta_I_of_V, agent_resources_.row_size(v));
  }
  for (std::size_t v = 0; v < agent_parties_.num_rows(); ++v) {
    bounds.delta_K_of_V = std::max(bounds.delta_K_of_V, agent_parties_.row_size(v));
  }
  for (std::size_t i = 0; i < resource_support_.num_rows(); ++i) {
    bounds.delta_V_of_I = std::max(bounds.delta_V_of_I, resource_support_.row_size(i));
  }
  for (std::size_t k = 0; k < party_support_.num_rows(); ++k) {
    bounds.delta_V_of_K = std::max(bounds.delta_V_of_K, party_support_.row_size(k));
  }
  return bounds;
}

Hypergraph Instance::communication_graph(bool collaboration_oblivious) const {
  std::vector<std::vector<NodeId>> edges;
  edges.reserve(resource_support_.num_rows() +
                (collaboration_oblivious ? 0 : party_support_.num_rows()));
  for (std::size_t i = 0; i < resource_support_.num_rows(); ++i) {
    const CoefSpan support = resource_support_.row(i);
    std::vector<NodeId> members;
    members.reserve(support.size());
    for (const Coef& entry : support) {
      members.push_back(entry.id);
    }
    edges.push_back(std::move(members));
  }
  if (!collaboration_oblivious) {
    for (std::size_t k = 0; k < party_support_.num_rows(); ++k) {
      const CoefSpan support = party_support_.row(k);
      std::vector<NodeId> members;
      members.reserve(support.size());
      for (const Coef& entry : support) {
        members.push_back(entry.id);
      }
      edges.push_back(std::move(members));
    }
  }
  return Hypergraph::from_edges(num_agents(), edges);
}

void Instance::validate() const {
  // Standing assumptions (Section 1.2): I_v, V_i and V_k nonempty; all
  // stored coefficients strictly positive; cross-index consistency.
  for (AgentId v = 0; v < num_agents(); ++v) {
    MMLP_CHECK_MSG(!agent_resources(v).empty(),
                   "agent " << v << " has empty I_v");
  }
  for (ResourceId i = 0; i < num_resources(); ++i) {
    MMLP_CHECK_MSG(!resource_support(i).empty(),
                   "resource " << i << " has empty V_i");
    for (const Coef& entry : resource_support(i)) {
      MMLP_CHECK_MSG(entry.value > 0.0, "a(i=" << i << ", v=" << entry.id
                                               << ") = " << entry.value
                                               << " must be positive");
      MMLP_CHECK_EQ(usage(i, entry.id),
                    lookup(agent_resources(entry.id), i));
    }
  }
  for (PartyId k = 0; k < num_parties(); ++k) {
    MMLP_CHECK_MSG(!party_support(k).empty(),
                   "party " << k << " has empty V_k");
    for (const Coef& entry : party_support(k)) {
      MMLP_CHECK_MSG(entry.value > 0.0, "c(k=" << k << ", v=" << entry.id
                                               << ") = " << entry.value
                                               << " must be positive");
      MMLP_CHECK_EQ(benefit(k, entry.id),
                    lookup(agent_parties(entry.id), k));
    }
  }
}

std::size_t Instance::num_nonzeros() const {
  return resource_support_.data.size() + party_support_.data.size();
}

std::string Instance::serialize() const {
  std::string out;
  out.reserve(24 + 32 * num_nonzeros());
  append_text(out, "mmlp ", num_agents(), ' ', num_resources(), ' ',
              num_parties(), '\n');
  const auto append_block = [&out](const CsrBlock& rows, const char* kind) {
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      for (const Coef& entry : rows.row(r)) {
        append_text(out, kind, r, ' ', entry.id, ' ', entry.value, '\n');
      }
    }
  };
  append_block(resource_support_, "a ");
  append_block(party_support_, "c ");
  return out;
}

namespace {

/// Instance text is read in place, split at the whitespace istream
/// extraction skips (' ' and '\t'..'\r').
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string_view next_token(std::string_view& text) {
  const auto begin = std::find_if_not(text.begin(), text.end(), is_space);
  const auto end = std::find_if(begin, text.end(), is_space);
  text = std::string_view(end, text.end());
  return {begin, end};
}

/// The next token as a T; it must be one number and nothing else.
template <typename T>
T next_number(std::string_view& text, const char* what) {
  text = {std::find_if_not(text.begin(), text.end(), is_space), text.end()};
  std::string_view token = text;
  const std::optional<T> value = consume_number<T>(text);
  MMLP_CHECK_MSG(value.has_value() && (text.empty() || is_space(text.front())),
                 "bad " << what << " '" << next_token(token)
                        << "' in instance text");
  return *value;
}

}  // namespace

Instance Instance::deserialize(std::string_view text) {
  MMLP_CHECK_MSG(next_token(text) == "mmlp", "bad instance header");
  const auto agents = next_number<AgentId>(text, "agent count");
  const auto resources = next_number<ResourceId>(text, "resource count");
  const auto parties = next_number<PartyId>(text, "party count");
  Builder builder;
  builder.reserve(agents, resources, parties);
  for (std::string_view kind = next_token(text); !kind.empty();
       kind = next_token(text)) {
    MMLP_CHECK_MSG(kind == "a" || kind == "c", "bad record kind: " << kind);
    const auto row = next_number<std::int32_t>(text, "row id");
    const auto v = next_number<AgentId>(text, "agent id");
    const auto value = next_number<double>(text, "coefficient");
    if (kind == "a") {
      builder.set_usage(row, v, value);
    } else {
      builder.set_benefit(row, v, value);
    }
  }
  return std::move(builder).build();
}

bool operator==(const Instance& lhs, const Instance& rhs) {
  return lhs.resource_support_ == rhs.resource_support_ &&
         lhs.party_support_ == rhs.party_support_;
}

Instance::Builder& Instance::Builder::reserve(AgentId agents,
                                              ResourceId resources,
                                              PartyId parties) {
  MMLP_CHECK_GE(agents, 0);
  MMLP_CHECK_GE(resources, 0);
  MMLP_CHECK_GE(parties, 0);
  num_agents_ = std::max(num_agents_, agents);
  num_resources_ = std::max(num_resources_, resources);
  num_parties_ = std::max(num_parties_, parties);
  return *this;
}

Instance::Builder& Instance::Builder::reserve_nonzeros(std::size_t usages,
                                                       std::size_t benefits) {
  usages_.reserve(usages);
  benefits_.reserve(benefits);
  return *this;
}

AgentId Instance::Builder::add_agent() { return num_agents_++; }
ResourceId Instance::Builder::add_resource() { return num_resources_++; }
PartyId Instance::Builder::add_party() { return num_parties_++; }

Instance::Builder& Instance::Builder::set_usage(ResourceId i, AgentId v,
                                                double a) {
  MMLP_CHECK_MSG(i >= 0, "set_usage: resource id i=" << i << " is negative");
  MMLP_CHECK_MSG(v >= 0, "set_usage: agent id v=" << v << " is negative");
  MMLP_CHECK_MSG(a > 0.0 && std::isfinite(a),
                 "a(i=" << i << ", v=" << v << ") = " << a
                 << " must be positive and finite");
  reserve(v + 1, i + 1, 0);
  usages_.emplace_back(i, v, a);
  return *this;
}

Instance::Builder& Instance::Builder::set_benefit(PartyId k, AgentId v,
                                                  double c) {
  MMLP_CHECK_MSG(k >= 0, "set_benefit: party id k=" << k << " is negative");
  MMLP_CHECK_MSG(v >= 0, "set_benefit: agent id v=" << v << " is negative");
  MMLP_CHECK_MSG(c > 0.0 && std::isfinite(c),
                 "c(k=" << k << ", v=" << v << ") = " << c
                 << " must be positive and finite");
  reserve(v + 1, 0, k + 1);
  benefits_.emplace_back(k, v, c);
  return *this;
}

namespace {

/// Counting-sort scatter of (row, id, value) triples into a CSR block
/// with `rows` rows; each row segment is then sorted by id. `row_kind`
/// and `id_kind` name the directions in duplicate-rejection messages.
template <typename Triples, typename RowOf, typename IdOf>
void fill_csr(std::vector<std::size_t>& offsets, std::vector<Coef>& data,
              std::size_t rows, const Triples& triples, const RowOf& row_of,
              const IdOf& id_of, const char* row_kind, const char* id_kind) {
  offsets.assign(rows + 1, 0);
  for (const auto& triple : triples) {
    ++offsets[static_cast<std::size_t>(row_of(triple)) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    offsets[r + 1] += offsets[r];
  }
  data.resize(triples.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& triple : triples) {
    const auto r = static_cast<std::size_t>(row_of(triple));
    data[cursor[r]++] = {id_of(triple), std::get<2>(triple)};
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const auto begin = data.begin() + static_cast<std::ptrdiff_t>(offsets[r]);
    const auto end = data.begin() + static_cast<std::ptrdiff_t>(offsets[r + 1]);
    std::sort(begin, end,
              [](const Coef& x, const Coef& y) { return x.id < y.id; });
    const auto dup = std::adjacent_find(
        begin, end, [](const Coef& x, const Coef& y) { return x.id == y.id; });
    MMLP_CHECK_MSG(dup == end, "duplicate coefficient: " << row_kind << "="
                                                         << r << ", " << id_kind
                                                         << "=" << dup->id);
  }
}

}  // namespace

InstanceDelta& InstanceDelta::set_usage(ResourceId i, AgentId v, double a) {
  MMLP_CHECK_MSG(a > 0.0 && std::isfinite(a),
                 "delta a(i=" << i << ", v=" << v << ") = " << a
                 << " must be positive and finite (use erase_usage)");
  usages.push_back({i, v, a});
  return *this;
}

InstanceDelta& InstanceDelta::erase_usage(ResourceId i, AgentId v) {
  usages.push_back({i, v, 0.0});
  return *this;
}

InstanceDelta& InstanceDelta::set_benefit(PartyId k, AgentId v, double c) {
  MMLP_CHECK_MSG(c > 0.0 && std::isfinite(c),
                 "delta c(k=" << k << ", v=" << v << ") = " << c
                 << " must be positive and finite (use erase_benefit)");
  benefits.push_back({k, v, c});
  return *this;
}

InstanceDelta& InstanceDelta::erase_benefit(PartyId k, AgentId v) {
  benefits.push_back({k, v, 0.0});
  return *this;
}

InstanceDelta& InstanceDelta::add_agents(AgentId count) {
  MMLP_CHECK_GE(count, 0);
  new_agents += count;
  return *this;
}

InstanceDelta& InstanceDelta::add_resources(ResourceId count) {
  MMLP_CHECK_GE(count, 0);
  new_resources += count;
  return *this;
}

InstanceDelta& InstanceDelta::add_parties(PartyId count) {
  MMLP_CHECK_GE(count, 0);
  new_parties += count;
  return *this;
}

InstanceDelta& InstanceDelta::remove_agent(AgentId v) {
  removed_agents.push_back(v);
  return *this;
}

namespace {

/// One (row, id) coordinate packed for the edit maps.
std::uint64_t coord_key(std::int32_t row, std::int32_t id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint32_t>(id);
}

}  // namespace

DeltaEffect Instance::apply(const InstanceDelta& delta) {
  DeltaEffect effect;
  if (delta.empty()) {
    effect.revision = revision_;
    return effect;
  }
  obs::ObsSpan span("instance.apply", "core");
  const AgentId old_agents = num_agents();
  const ResourceId old_resources = num_resources();
  const PartyId old_parties = num_parties();
  MMLP_CHECK_GE(delta.new_agents, 0);
  MMLP_CHECK_GE(delta.new_resources, 0);
  MMLP_CHECK_GE(delta.new_parties, 0);
  const AgentId agents_after_add = old_agents + delta.new_agents;
  const ResourceId resources_after_add = old_resources + delta.new_resources;
  const PartyId parties_after_add = old_parties + delta.new_parties;

  std::vector<AgentId> removed = delta.removed_agents;
  std::sort(removed.begin(), removed.end());
  MMLP_CHECK_MSG(
      std::adjacent_find(removed.begin(), removed.end()) == removed.end(),
      "remove_agent: an agent is listed twice");
  for (const AgentId v : removed) {
    MMLP_CHECK_MSG(v >= 0 && v < old_agents,
                   "remove_agent: agent id " << v << " out of range (have "
                                             << old_agents << ")");
  }
  const auto is_removed = [&](AgentId v) {
    return std::binary_search(removed.begin(), removed.end(), v);
  };

  // ---- classify the edits against the current blocks (no mutation) ----
  // An edit is structural when it changes support membership: an insert
  // (absent entry set to a positive value) or an erase. Pure value
  // overwrites of existing entries are not.
  bool structural = delta.new_agents > 0 || delta.new_resources > 0 ||
                    delta.new_parties > 0 || !removed.empty();
  std::unordered_map<std::uint64_t, double> usage_edit;
  std::unordered_map<std::uint64_t, double> benefit_edit;
  usage_edit.reserve(delta.usages.size());
  benefit_edit.reserve(delta.benefits.size());
  std::vector<AgentId> touched;
  std::vector<ResourceId> touched_resources;  // rows with membership edits
  std::vector<PartyId> touched_parties;

  const auto classify = [&](const InstanceDelta::CoefEdit& edit,
                            const CsrBlock& rows, std::int32_t rows_after,
                            std::unordered_map<std::uint64_t, double>& edits,
                            std::vector<std::int32_t>& touched_rows,
                            const char* row_kind) {
    MMLP_CHECK_MSG(edit.row >= 0 && edit.row < rows_after,
                   row_kind << " id " << edit.row << " out of range (have "
                            << rows_after << " after additions)");
    MMLP_CHECK_MSG(edit.v >= 0 && edit.v < agents_after_add,
                   "agent id " << edit.v << " out of range (have "
                               << agents_after_add << " after additions)");
    MMLP_CHECK_MSG(!is_removed(edit.v),
                   "edit references agent " << edit.v
                                            << " removed by the same delta");
    MMLP_CHECK_MSG(edit.value >= 0.0,
                   "coefficient for " << row_kind << "=" << edit.row << ", v="
                                      << edit.v << " is negative: "
                                      << edit.value);
    const bool in_old_shape =
        edit.row < static_cast<std::int32_t>(rows.num_rows()) &&
        edit.v < old_agents;
    const bool exists =
        in_old_shape &&
        lookup(rows.row(static_cast<std::size_t>(edit.row)), edit.v) != 0.0;
    if (edit.value == 0.0) {
      MMLP_CHECK_MSG(exists, "erase of absent coefficient (" << row_kind << "="
                                                             << edit.row
                                                             << ", v=" << edit.v
                                                             << ")");
    }
    const auto [it, inserted] =
        edits.emplace(coord_key(edit.row, edit.v), edit.value);
    MMLP_CHECK_MSG(inserted, "duplicate edit for (" << row_kind << "="
                                                    << edit.row << ", v="
                                                    << edit.v << ")");
    touched.push_back(edit.v);
    if (edit.value == 0.0 || !exists) {
      structural = true;
      touched_rows.push_back(edit.row);
    }
  };
  for (const InstanceDelta::CoefEdit& edit : delta.usages) {
    classify(edit, resource_support_, resources_after_add, usage_edit,
             touched_resources, "resource i");
  }
  for (const InstanceDelta::CoefEdit& edit : delta.benefits) {
    classify(edit, party_support_, parties_after_add, benefit_edit,
             touched_parties, "party k");
  }

  // ---- fast path: in-place value overwrites ---------------------------
  if (!structural) {
    const auto write = [](CsrBlock& block, std::size_t row, std::int32_t id,
                          double value) {
      const auto begin =
          block.data.begin() + static_cast<std::ptrdiff_t>(block.offsets[row]);
      const auto end = block.data.begin() +
                       static_cast<std::ptrdiff_t>(block.offsets[row + 1]);
      const auto it = std::lower_bound(
          begin, end, id,
          [](const Coef& entry, std::int32_t target) { return entry.id < target; });
      MMLP_CHECK(it != end && it->id == id);  // classified as existing above
      it->value = value;
    };
    for (const InstanceDelta::CoefEdit& edit : delta.usages) {
      write(resource_support_, static_cast<std::size_t>(edit.row), edit.v,
            edit.value);
      write(agent_resources_, static_cast<std::size_t>(edit.v), edit.row,
            edit.value);
    }
    for (const InstanceDelta::CoefEdit& edit : delta.benefits) {
      write(party_support_, static_cast<std::size_t>(edit.row), edit.v,
            edit.value);
      write(agent_parties_, static_cast<std::size_t>(edit.v), edit.row,
            edit.value);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    effect.revision = ++revision_;
    effect.touched = std::move(touched);
    return effect;
  }

  // ---- compacting rebuild ---------------------------------------------
  // Membership changed somewhere: rebuild all four CSR blocks from the
  // edited coefficient set with the exact Builder::build scatter, so the
  // result is block-for-block what a from-scratch build would produce.
  effect.remapped = !removed.empty();

  // Agent remap over the delta's id space [0, agents_after_add): removed
  // agents map to -1, survivors and additions shift down past them.
  std::vector<AgentId> agent_map(static_cast<std::size_t>(agents_after_add));
  {
    AgentId next = 0;
    for (AgentId v = 0; v < agents_after_add; ++v) {
      agent_map[static_cast<std::size_t>(v)] = is_removed(v) ? -1 : next++;
    }
  }
  const auto agents_final =
      static_cast<AgentId>(agents_after_add -
                           static_cast<AgentId>(removed.size()));

  // Edited coefficient multiset: surviving old entries with edits folded
  // in, then the pure insertions left over in the edit maps.
  std::vector<std::tuple<ResourceId, AgentId, double>> usages;
  std::vector<std::tuple<PartyId, AgentId, double>> benefits;
  const auto collect = [&](const CsrBlock& rows,
                           std::unordered_map<std::uint64_t, double>& edits,
                           auto& triples) {
    triples.reserve(rows.data.size() + edits.size());
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      for (const Coef& entry : rows.row(r)) {
        if (is_removed(entry.id)) {
          continue;
        }
        double value = entry.value;
        const auto it = edits.find(coord_key(static_cast<std::int32_t>(r), entry.id));
        if (it != edits.end()) {
          value = it->second;
          edits.erase(it);  // consumed; leftovers below are insertions
        }
        if (value > 0.0) {
          triples.emplace_back(static_cast<std::int32_t>(r), entry.id, value);
        }
      }
    }
    for (const auto& [key, value] : edits) {
      // Erases of absent entries were rejected in classification, so
      // every leftover is a positive insertion.
      triples.emplace_back(static_cast<std::int32_t>(key >> 32),
                           static_cast<std::int32_t>(key & 0xffffffffu), value);
    }
  };
  collect(resource_support_, usage_edit, usages);
  collect(party_support_, benefit_edit, benefits);

  // Per-row occupancy after the edits: new resources/parties must have
  // entries; old rows emptied by explicit erases are an error (remove
  // the members instead); rows emptied purely by agent removals cascade.
  std::vector<std::int32_t> resource_count(
      static_cast<std::size_t>(resources_after_add), 0);
  for (const auto& [i, v, a] : usages) {
    ++resource_count[static_cast<std::size_t>(i)];
  }
  std::vector<std::int32_t> party_count(
      static_cast<std::size_t>(parties_after_add), 0);
  for (const auto& [k, v, c] : benefits) {
    ++party_count[static_cast<std::size_t>(k)];
  }
  std::vector<ResourceId> resource_map(
      static_cast<std::size_t>(resources_after_add));
  std::vector<PartyId> party_map(static_cast<std::size_t>(parties_after_add));
  const auto compact_rows = [&](const std::vector<std::int32_t>& count,
                                std::vector<std::int32_t>& map,
                                std::int32_t old_rows, const char* row_kind) {
    std::int32_t next = 0;
    for (std::size_t r = 0; r < count.size(); ++r) {
      if (count[r] > 0) {
        map[r] = next++;
        continue;
      }
      map[r] = -1;
      MMLP_CHECK_MSG(static_cast<std::int32_t>(r) < old_rows,
                     "added " << row_kind << " " << r
                              << " has no coefficients");
      MMLP_CHECK_MSG(
          effect.remapped,
          row_kind << " " << r << " would be left with an empty support "
                   << "(erase the row's last entry only via agent removal)");
    }
    return next;
  };
  const std::int32_t resources_final =
      compact_rows(resource_count, resource_map, old_resources, "resource");
  const std::int32_t parties_final =
      compact_rows(party_count, party_map, old_parties, "party");
  if (resources_final != resources_after_add ||
      parties_final != parties_after_add) {
    effect.remapped = true;  // cascade compaction moved resource/party ids
  }

  // Every surviving or added agent still needs a nonempty I_v.
  {
    std::vector<std::int32_t> agent_usage_count(
        static_cast<std::size_t>(agents_after_add), 0);
    for (const auto& [i, v, a] : usages) {
      ++agent_usage_count[static_cast<std::size_t>(v)];
    }
    for (AgentId v = 0; v < agents_after_add; ++v) {
      MMLP_CHECK_MSG(is_removed(v) ||
                         agent_usage_count[static_cast<std::size_t>(v)] > 0,
                     "agent " << v << " would be left with empty I_v");
    }
  }

  // Remap ids in the triples, then rebuild through the Builder scatter.
  for (auto& [i, v, a] : usages) {
    i = resource_map[static_cast<std::size_t>(i)];
    v = agent_map[static_cast<std::size_t>(v)];
  }
  for (auto& [k, v, c] : benefits) {
    k = party_map[static_cast<std::size_t>(k)];
    v = agent_map[static_cast<std::size_t>(v)];
  }

  Instance rebuilt;
  const auto first = [](const auto& t) { return std::get<0>(t); };
  const auto second = [](const auto& t) { return std::get<1>(t); };
  fill_csr(rebuilt.resource_support_.offsets, rebuilt.resource_support_.data,
           static_cast<std::size_t>(resources_final), usages, first, second,
           "resource i", "agent v");
  fill_csr(rebuilt.agent_resources_.offsets, rebuilt.agent_resources_.data,
           static_cast<std::size_t>(agents_final), usages, second, first,
           "agent v", "resource i");
  fill_csr(rebuilt.party_support_.offsets, rebuilt.party_support_.data,
           static_cast<std::size_t>(parties_final), benefits, first, second,
           "party k", "agent v");
  fill_csr(rebuilt.agent_parties_.offsets, rebuilt.agent_parties_.data,
           static_cast<std::size_t>(agents_final), benefits, second, first,
           "agent v", "party k");
  rebuilt.validate();

  // Commit (nothing above mutated *this, so a throw left it untouched).
  resource_support_ = std::move(rebuilt.resource_support_);
  party_support_ = std::move(rebuilt.party_support_);
  agent_resources_ = std::move(rebuilt.agent_resources_);
  agent_parties_ = std::move(rebuilt.agent_parties_);
  effect.revision = ++revision_;
  effect.structural = true;

  if (effect.remapped) {
    effect.agent_remap = std::move(agent_map);
    return effect;
  }
  // Touched closure for dirty-region repair: the edited agents, every
  // member (old or new) of each row whose membership changed, and the
  // added agents. Any removed adjacency then has both endpoints in the
  // set, so a single new-graph BFS from it covers the old reach too.
  for (const ResourceId i : touched_resources) {
    if (i < old_resources) {
      // Old membership from the pre-rebuild block we still... rebuilt in
      // place above; read the NEW row — old members missing from it are
      // exactly the erased ones, which are already in `touched` as the
      // edited agents.
      for (const Coef& entry : resource_support(i)) {
        touched.push_back(entry.id);
      }
    }
  }
  for (const PartyId k : touched_parties) {
    if (k < old_parties) {
      for (const Coef& entry : party_support(k)) {
        touched.push_back(entry.id);
      }
    }
  }
  for (AgentId v = old_agents; v < agents_after_add; ++v) {
    touched.push_back(v);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  effect.touched = std::move(touched);
  return effect;
}

Instance Instance::Builder::build() && {
  Instance instance;
  const auto agents = static_cast<std::size_t>(num_agents_);
  const auto resources = static_cast<std::size_t>(num_resources_);
  const auto parties = static_cast<std::size_t>(num_parties_);

  const auto first = [](const auto& t) { return std::get<0>(t); };
  const auto second = [](const auto& t) { return std::get<1>(t); };
  fill_csr(instance.resource_support_.offsets, instance.resource_support_.data,
           resources, usages_, first, second, "resource i", "agent v");
  fill_csr(instance.agent_resources_.offsets, instance.agent_resources_.data,
           agents, usages_, second, first, "agent v", "resource i");
  fill_csr(instance.party_support_.offsets, instance.party_support_.data,
           parties, benefits_, first, second, "party k", "agent v");
  fill_csr(instance.agent_parties_.offsets, instance.agent_parties_.data,
           agents, benefits_, second, first, "agent v", "party k");

  instance.validate();
  return instance;
}

}  // namespace mmlp
