// Orbit partition of local views (see view_class.hpp for the model).
#include "mmlp/core/view_class.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "mmlp/core/view.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/scratch_pool.hpp"

namespace mmlp {

namespace {

/// Append the object representation of `value` (bytes as in memory).
template <typename T>
void put(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
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
  put(exact, num_locals);
  put(exact, center_local);
  put(exact, num_resources);
  put(exact, num_parties);
  for (std::int32_t r = 0; r < num_rows; ++r) {
    const CoefSpan entries =
        r < num_resources
            ? view.resource_entries(static_cast<std::size_t>(r))
            : view.party_entries(static_cast<std::size_t>(r - num_resources));
    put(exact, static_cast<std::int32_t>(entries.size()));
    for (const Coef& entry : entries) {
      put(exact, entry.id);
      put(exact, entry.value);
    }
  }
  return exact;
}

/// Re-serialize the `dirty` agents (strictly ascending) in blocks of kBlock,
/// and regroup every agent in ascending order: a dirty agent under its fresh
/// key, a clean one under its old orbit's key. Each block is grouped and
/// freed before the next is serialized, so at most one block of fresh keys
/// is alive. Orbit ids and representatives are deterministic, and the build
/// (every agent dirty, empty index) and the repair are one computation.
void regroup(const Instance& instance,
             const std::vector<std::vector<AgentId>>& balls,
             std::span<const AgentId> dirty, ViewClassIndex& index,
             ThreadPool* pool, const char* span_name) {
  constexpr std::size_t kBlock = 4096;
  const auto n = static_cast<std::size_t>(instance.num_agents());
  MMLP_CHECK_EQ(balls.size(), n);
  MMLP_CHECK_MSG(index.num_agents() <= n,
                 "agent removal shrank the instance; the index needs a full "
                 "rebuild, not a repair");
  MMLP_CHECK_MSG(
      std::ranges::adjacent_find(dirty, std::greater_equal()) == dirty.end() &&
          (dirty.empty() || (dirty.front() >= 0 &&
                             static_cast<std::size_t>(dirty.back()) < n)),
      "dirty agents must be strictly ascending ids in [0, " << n << ")");
  for (std::size_t u = index.num_agents(); u < n; ++u) {
    MMLP_CHECK_MSG(
        std::binary_search(dirty.begin(), dirty.end(), static_cast<AgentId>(u)),
        "added agent " << u << " must be in the dirty set");
  }

  obs::ObsSpan span(span_name, "core");
  const std::vector<std::int32_t> old_orbit_of = std::move(index.orbit_of);
  const std::vector<std::string> old_keys = std::move(index.orbit_key);
  index.orbit_of.assign(n, -1);
  index.orbit_rep.clear();
  index.orbit_size.clear();
  std::unordered_map<std::string, std::int32_t> orbit_ids;
  orbit_ids.reserve(old_keys.size());
  ScratchPool<ViewScratch> scratch;
  std::size_t u = 0;
  for (std::size_t first = 0; u < n; first += kBlock) {
    const std::size_t last = std::min(first + kBlock, dirty.size());
    std::vector<std::string> fresh(last - first);
    chunked_parallel_for(
        fresh.size(),
        [&](std::size_t begin, std::size_t end) {
          auto lease = scratch.acquire();
          LocalView view;
          for (std::size_t idx = begin; idx < end; ++idx) {
            const AgentId v = dirty[first + idx];
            extract_view_into(instance, v, index.radius,
                              balls[static_cast<std::size_t>(v)], view, *lease);
            fresh[idx] = serialize_exact_key(view);
          }
        },
        pool);
    // Group up to the next block's first dirty agent (or to the end). New
    // orbit keys are copied on this thread, so every worker-allocated
    // block key is freed with the block and none pins a worker's heap.
    const std::size_t stop =
        last < dirty.size() ? static_cast<std::size_t>(dirty[last]) : n;
    for (std::size_t next = first; u < stop; ++u) {
      const bool is_dirty =
          next < last && dirty[next] == static_cast<AgentId>(u);
      const std::string& key =
          is_dirty ? fresh[next++ - first]
                   : old_keys[static_cast<std::size_t>(old_orbit_of[u])];
      const auto [it, inserted] = orbit_ids.try_emplace(
          key, static_cast<std::int32_t>(index.num_orbits()));
      if (inserted) {
        index.orbit_rep.push_back(static_cast<AgentId>(u));
        index.orbit_size.push_back(0);
      }
      index.orbit_of[u] = it->second;
      ++index.orbit_size[static_cast<std::size_t>(it->second)];
    }
  }
  index.orbit_key.resize(orbit_ids.size());
  while (!orbit_ids.empty()) {
    auto node = orbit_ids.extract(orbit_ids.begin());
    index.orbit_key[static_cast<std::size_t>(node.mapped())] =
        std::move(node.key());
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
