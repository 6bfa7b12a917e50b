// Seeded input generator: the instance text and the JSONL request stream
// of each workload.
//
// The engine under test only ever sees what this file produces — the
// Instance::serialize text it deserializes during set-up, and wire lines
// it parses per request. The same (workload, seed) pair always yields
// the same text and the same line sequence.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/util/rng.hpp"

namespace wirebench {

/// Static description of one workload (sizes, serving shape, set-up).
struct WorkloadConfig {
  std::string name;
  enum class Family { kRandom, kGridTorus } family = Family::kGridTorus;
  std::int64_t agents = 0;        ///< random: exact; grid: side = round(sqrt)
  std::string algorithm = "averaging";  ///< registry name (R = 1 when averaging)
  std::int32_t defects = 0;       ///< seed-placed usage edits on a unit grid
  std::int32_t shards = 0;        ///< >= 2: serve through a ShardedSession
  bool mutable_session = false;   ///< Session over Instance& (updates)
  bool emit_x = false;            ///< encode the solution vector
  std::int32_t setups = 3;        ///< set-ups per run; setup_s is the median
};

/// One of the workloads, by name; throws CheckError on an unknown
/// name.
const WorkloadConfig& workload_config(const std::string& name);

/// The instance of a workload (what `wirebench gen` serializes).
mmlp::Instance make_instance(const WorkloadConfig& config, std::uint64_t seed);

/// One request as it arrives on the wire: a solve line, or an update
/// line followed by its incremental solve line (update_stream). `k` is
/// the number of edits of the update (0 for plain solves).
struct Request {
  std::vector<std::string> lines;
  std::int32_t k = 0;
};

/// Endless deterministic request stream of a workload. Update batches
/// draw k *distinct* (resource, agent) pairs that exist in `instance`
/// (set_usage never changes support membership, so they stay valid for
/// the whole stream) with k taken from a per-seed shuffle of the fixed
/// mix 12×1, 5×16, 3×256 per 20 requests.
class RequestStream {
 public:
  RequestStream(const WorkloadConfig& config, std::uint64_t seed,
                const mmlp::Instance& instance);

  /// The line that warms a fresh session before any stream request (for
  /// update_stream: the full solve that primes the incremental memo).
  std::string prime_line() const;

  Request next();

 private:
  std::string solve_line(std::int64_t id) const;
  std::string update_line(std::int64_t id, std::int32_t k);

  const WorkloadConfig& config_;
  const mmlp::Instance& instance_;
  mmlp::Rng rng_;
  std::int64_t next_id_ = 1;
  std::vector<std::int32_t> mix_;
  std::size_t mix_pos_ = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> picked_;
};

}  // namespace wirebench
