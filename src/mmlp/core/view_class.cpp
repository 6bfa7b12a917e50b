// Orbit partition of local views (see view_class.hpp for the model).
#include "mmlp/core/view_class.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "mmlp/core/view.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"

namespace mmlp {

namespace {

void put_i32(std::string& out, std::int32_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

void put_u64(std::string& out, std::uint64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

/// The view's local structure serialized verbatim (local indexing, row
/// order as extracted): equal keys <=> bit-identical view LPs.
std::string serialize_exact_key(const LocalView& view) {
  const auto num_locals = static_cast<std::int32_t>(view.agents.size());
  const std::int32_t center_local = view.local_index(view.center);
  MMLP_CHECK_GE(center_local, 0);
  const auto num_resources = static_cast<std::int32_t>(view.resources.size());
  const auto num_parties = static_cast<std::int32_t>(view.parties.size());
  const std::int32_t num_rows = num_resources + num_parties;
  std::string exact;
  exact.reserve(64 + static_cast<std::size_t>(num_rows) * 16);
  put_i32(exact, num_locals);
  put_i32(exact, center_local);
  put_i32(exact, num_resources);
  put_i32(exact, num_parties);
  for (std::int32_t r = 0; r < num_rows; ++r) {
    const CoefSpan entries =
        r < num_resources
            ? view.resource_entries(static_cast<std::size_t>(r))
            : view.party_entries(static_cast<std::size_t>(r - num_resources));
    put_i32(exact, static_cast<std::int32_t>(entries.size()));
    for (const Coef& entry : entries) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &entry.value, sizeof bits);
      put_i32(exact, entry.id);
      put_u64(exact, bits);
    }
  }
  return exact;
}

/// Serialize the view of every agent u in `agents` into keys[u], in
/// parallel on `pool`.
void serialize_views(const Instance& instance,
                     const std::vector<std::vector<AgentId>>& balls,
                     std::int32_t radius, std::span<const AgentId> agents,
                     std::vector<std::string>& keys, ThreadPool* pool) {
  chunked_parallel_for(
      agents.size(),
      [&](std::size_t begin, std::size_t end) {
        ViewScratch scratch;
        LocalView view;
        for (std::size_t idx = begin; idx < end; ++idx) {
          const auto u = static_cast<std::size_t>(agents[idx]);
          extract_view_into(instance, agents[idx], radius, balls[u], view,
                            scratch);
          keys[u] = serialize_exact_key(view);
        }
      },
      pool);
}

/// Rebuild the orbit arrays from the per-agent keys in ascending agent
/// order, so orbit ids and representatives are deterministic. Shared by
/// build and repair, which is what makes a repaired index identical to
/// a rebuilt one.
void group_orbits(const std::vector<std::string>& keys, ViewClassIndex& index) {
  const std::size_t n = keys.size();
  index.orbit_of.assign(n, -1);
  index.orbit_rep.clear();
  index.orbit_size.clear();
  std::unordered_map<std::string_view, std::int32_t> orbit_ids;
  orbit_ids.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto [it, inserted] = orbit_ids.emplace(
        std::string_view(keys[u]),
        static_cast<std::int32_t>(index.orbit_rep.size()));
    if (inserted) {
      index.orbit_rep.push_back(static_cast<AgentId>(u));
      index.orbit_size.push_back(0);
    }
    index.orbit_of[u] = it->second;
    ++index.orbit_size[static_cast<std::size_t>(it->second)];
  }
}

}  // namespace

double ViewClassIndex::dedup_ratio() const {
  if (num_agents() == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(num_orbits()) /
                   static_cast<double>(num_agents());
}

ViewClassIndex build_view_class_index(
    const Instance& instance, const std::vector<std::vector<AgentId>>& balls,
    std::int32_t radius, bool collaboration_oblivious, ThreadPool* pool,
    bool keep_keys) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  MMLP_CHECK_EQ(balls.size(), n);

  ViewClassIndex index;
  index.radius = radius;
  index.collaboration_oblivious = collaboration_oblivious;
  index.repairable = keep_keys;
  if (n == 0) {
    return index;
  }

  obs::ObsSpan span("view_class.build", "core");
  std::vector<AgentId> agents(n);
  std::iota(agents.begin(), agents.end(), AgentId{0});
  std::vector<std::string> keys(n);
  serialize_views(instance, balls, radius, agents, keys, pool);
  group_orbits(keys, index);
  if (keep_keys) {
    index.exact_keys = std::move(keys);
  }
  return index;
}

void repair_view_class_index(const Instance& instance,
                             const std::vector<std::vector<AgentId>>& balls,
                             std::span<const AgentId> dirty,
                             ViewClassIndex& index, ThreadPool* pool) {
  MMLP_CHECK_MSG(index.repairable,
                 "view-class index was built without keep_keys; rebuild it "
                 "instead of repairing");
  const auto n = static_cast<std::size_t>(instance.num_agents());
  const std::size_t n_old = index.exact_keys.size();
  MMLP_CHECK_EQ(balls.size(), n);
  MMLP_CHECK_MSG(n_old <= n,
                 "agent removal shrank the instance; the index needs a full "
                 "rebuild, not a repair");
  MMLP_CHECK(std::is_sorted(dirty.begin(), dirty.end()));
  for (std::size_t u = n_old; u < n; ++u) {
    MMLP_CHECK_MSG(
        std::binary_search(dirty.begin(), dirty.end(), static_cast<AgentId>(u)),
        "added agent " << u << " must be in the dirty set");
  }

  obs::ObsSpan span("view_class.repair", "core");
  index.exact_keys.resize(n);
  serialize_views(instance, balls, index.radius, dirty, index.exact_keys, pool);
  group_orbits(index.exact_keys, index);
}

}  // namespace mmlp
