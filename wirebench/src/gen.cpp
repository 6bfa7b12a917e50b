#include "gen.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "mmlp/gen/grid.hpp"
#include "mmlp/gen/random_instance.hpp"
#include "mmlp/util/check.hpp"

namespace wirebench {

namespace {

using mmlp::Instance;

std::string shortest(double value) {
  char buffer[32];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  MMLP_CHECK(error == std::errc());
  return {buffer, end};
}

/// A uniformly drawn (resource, agent) pair of `instance`'s usage support.
std::pair<mmlp::ResourceId, mmlp::AgentId> draw_usage_pair(
    const Instance& instance, mmlp::Rng& rng) {
  const auto i = static_cast<mmlp::ResourceId>(
      rng.next_below(static_cast<std::uint64_t>(instance.num_resources())));
  const mmlp::CoefSpan support = instance.resource_support(i);
  return {i, support[rng.next_below(support.size())].id};
}

/// k distinct usage pairs: a delta naming one (i, v) twice is a validate
/// error, so duplicates are redrawn.
void draw_distinct_pairs(
    const Instance& instance, mmlp::Rng& rng, std::int32_t k,
    std::vector<std::pair<mmlp::ResourceId, mmlp::AgentId>>& picked) {
  picked.clear();
  while (static_cast<std::int32_t>(picked.size()) < k) {
    const auto pair = draw_usage_pair(instance, rng);
    if (std::find(picked.begin(), picked.end(), pair) == picked.end()) {
      picked.push_back(pair);
    }
  }
}

std::int32_t grid_side(std::int64_t agents) {
  return static_cast<std::int32_t>(
      std::llround(std::sqrt(static_cast<double>(agents))));
}

const std::vector<WorkloadConfig>& all_workloads() {
  using Family = WorkloadConfig::Family;
  static const std::vector<WorkloadConfig> configs = {
      {.name = "averaging_random",
       .family = Family::kRandom,
       .agents = 30000,
       .emit_x = true,
       .setups = 7},
      {.name = "update_stream",
       .family = Family::kGridTorus,
       .agents = 100000,
       .mutable_session = true,
       .setups = 7},
      {.name = "dedup_sharded",
       .family = Family::kGridTorus,
       .agents = 100000,
       .defects = 8,
       .shards = 4,
       .setups = 5},
  };
  return configs;
}

}  // namespace

const WorkloadConfig& workload_config(const std::string& name) {
  for (const WorkloadConfig& config : all_workloads()) {
    if (config.name == name) {
      return config;
    }
  }
  MMLP_CHECK_MSG(false, "unknown workload '" << name << "'");
}

Instance make_instance(const WorkloadConfig& config, std::uint64_t seed) {
  if (config.family == WorkloadConfig::Family::kRandom) {
    return mmlp::make_random_instance({
        .num_agents = static_cast<mmlp::AgentId>(config.agents),
        .resources_per_agent = 3,
        .parties_per_agent = 2,
        .max_support = 4,
        .seed = seed,
    });
  }
  const std::int32_t side = grid_side(config.agents);
  Instance instance = mmlp::make_grid_instance(
      {.dims = {side, side}, .torus = true, .seed = seed});
  if (config.defects > 0) {
    // A few seed-placed coefficient defects: the torus stays mostly
    // symmetric (dedup still collapses almost every view), but the
    // asymmetric views around each defect differ from seed to seed.
    mmlp::Rng rng(seed ^ 0xdefec7ULL);
    std::vector<std::pair<mmlp::ResourceId, mmlp::AgentId>> picked;
    draw_distinct_pairs(instance, rng, config.defects, picked);
    mmlp::InstanceDelta delta;
    for (const auto& [i, v] : picked) {
      delta.set_usage(i, v, rng.uniform(0.5, 1.5));
    }
    instance.apply(delta);
  }
  return instance;
}

RequestStream::RequestStream(const WorkloadConfig& config, std::uint64_t seed,
                             const Instance& instance)
    : config_(config), instance_(instance), rng_(seed ^ 0x5eedULL) {}

std::string RequestStream::prime_line() const { return solve_line(0); }

std::string RequestStream::solve_line(std::int64_t id) const {
  std::string line = "{\"id\": " + std::to_string(id) +
                     ", \"algorithm\": \"" + config_.algorithm + "\"";
  if (config_.algorithm == "averaging") {
    line += ", \"R\": 1";
  }
  if (config_.shards >= 2) {
    line += ", \"deduplicate\": true, \"shards\": " +
            std::to_string(config_.shards);
  }
  if (config_.mutable_session) {
    line += ", \"incremental\": true";
  }
  return line + "}";
}

std::string RequestStream::update_line(std::int64_t id, std::int32_t k) {
  draw_distinct_pairs(instance_, rng_, k, picked_);
  std::string line =
      "{\"op\": \"update\", \"id\": " + std::to_string(id) + ", \"set_usage\": [";
  for (std::size_t e = 0; e < picked_.size(); ++e) {
    line += e == 0 ? "{\"i\": " : ", {\"i\": ";
    line += std::to_string(picked_[e].first) + ", \"v\": " +
            std::to_string(picked_[e].second) +
            ", \"a\": " + shortest(rng_.uniform(0.5, 1.5)) + "}";
  }
  return line + "]}";
}

Request RequestStream::next() {
  const std::int64_t id = next_id_++;
  if (!config_.mutable_session) {
    return {.lines = {solve_line(id)}};
  }
  if (mix_pos_ == mix_.size()) {
    mix_.assign(12, 1);
    mix_.insert(mix_.end(), 5, 16);
    mix_.insert(mix_.end(), 3, 256);
    rng_.shuffle(mix_);
    mix_pos_ = 0;
  }
  const std::int32_t k = mix_[mix_pos_++];
  return {.lines = {update_line(id, k), solve_line(id)}, .k = k};
}

}  // namespace wirebench
