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

/// Re-serialize the `dirty` agents (sorted), then regroup every agent in
/// ascending order: a dirty agent under its fresh key, a clean one under
/// its old orbit's key. Orbit ids and representatives are therefore
/// deterministic, and the build (every agent dirty, empty index) and the
/// repair are one computation.
void regroup(const Instance& instance,
             const std::vector<std::vector<AgentId>>& balls,
             std::span<const AgentId> dirty, ViewClassIndex& index,
             ThreadPool* pool, const char* span_name) {
  const auto n = static_cast<std::size_t>(instance.num_agents());
  MMLP_CHECK_EQ(balls.size(), n);
  MMLP_CHECK_MSG(index.num_agents() <= n,
                 "agent removal shrank the instance; the index needs a full "
                 "rebuild, not a repair");
  MMLP_CHECK(std::is_sorted(dirty.begin(), dirty.end()));
  for (std::size_t u = index.num_agents(); u < n; ++u) {
    MMLP_CHECK_MSG(
        std::binary_search(dirty.begin(), dirty.end(), static_cast<AgentId>(u)),
        "added agent " << u << " must be in the dirty set");
  }

  obs::ObsSpan span(span_name, "core");
  std::vector<std::string> fresh(dirty.size());
  chunked_parallel_for(
      dirty.size(),
      [&](std::size_t begin, std::size_t end) {
        ViewScratch scratch;
        LocalView view;
        for (std::size_t idx = begin; idx < end; ++idx) {
          const AgentId u = dirty[idx];
          extract_view_into(instance, u, index.radius,
                            balls[static_cast<std::size_t>(u)], view, scratch);
          fresh[idx] = serialize_exact_key(view);
        }
      },
      pool);

  const std::vector<std::int32_t> old_orbit_of = std::move(index.orbit_of);
  const std::vector<std::string> old_keys = std::move(index.orbit_key);
  index.orbit_of.assign(n, -1);
  index.orbit_key.clear();
  index.orbit_rep.clear();
  index.orbit_size.clear();
  std::unordered_map<std::string_view, std::int32_t> orbit_ids;
  orbit_ids.reserve(n);
  std::size_t next_dirty = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const bool is_dirty = next_dirty < dirty.size() &&
                          dirty[next_dirty] == static_cast<AgentId>(u);
    const std::string& key =
        is_dirty ? fresh[next_dirty++]
                 : old_keys[static_cast<std::size_t>(old_orbit_of[u])];
    const auto [it, inserted] = orbit_ids.emplace(
        std::string_view(key), static_cast<std::int32_t>(index.num_orbits()));
    if (inserted) {
      index.orbit_rep.push_back(static_cast<AgentId>(u));
      index.orbit_size.push_back(0);
      index.orbit_key.push_back(key);
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
    std::int32_t radius, bool collaboration_oblivious, ThreadPool* pool) {
  ViewClassIndex index;
  index.radius = radius;
  index.collaboration_oblivious = collaboration_oblivious;
  std::vector<AgentId> every(static_cast<std::size_t>(instance.num_agents()));
  std::iota(every.begin(), every.end(), AgentId{0});
  regroup(instance, balls, every, index, pool, "view_class.build");
  return index;
}

void repair_view_class_index(const Instance& instance,
                             const std::vector<std::vector<AgentId>>& balls,
                             std::span<const AgentId> dirty,
                             ViewClassIndex& index, ThreadPool* pool) {
  regroup(instance, balls, dirty, index, pool, "view_class.repair");
}

}  // namespace mmlp
