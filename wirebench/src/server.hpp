// The system under test, driven wire to wire through its public API.
//
// A Server owns one deserialized instance and the session serving it (a
// flat engine::Session, or an engine::ShardedSession for sharded
// workloads). handle() takes one JSONL line the way tools/mmlp_batch
// does: engine::parse_command_line, then Session::apply or
// engine::solve / ShardedSession::solve, then the wire encoder.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gen.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/engine/wire.hpp"

namespace wirebench {

/// Wall time of each set-up step, filled when the server is built with
/// explicit cache builds (the traced run). Sharded servers sum the
/// per-shard session builds.
struct SetupBreakdown {
  double deserialize_ms = 0.0;
  double construct_ms = 0.0;  ///< Session / ShardedSession constructor
  double graph_ms = 0.0;
  double balls_ms = 0.0;
  double growth_ms = 0.0;
  double view_classes_ms = 0.0;
};

/// What one wire line produced.
struct LineOutcome {
  mmlp::engine::WireCommand::Kind kind = mmlp::engine::WireCommand::Kind::kSolve;
  std::string encoded;     ///< the response line (result, apply report or error)
  bool error = false;      ///< answered with an error line
  mmlp::engine::SolveResult result;              ///< kSolve
  mmlp::engine::Session::ApplyReport report;     ///< kUpdate
  // Harness spans (filled only when handle() is asked to time layers).
  std::uint64_t start_ns = 0, parsed_ns = 0, dispatched_ns = 0, end_ns = 0;
};

class Server {
 public:
  /// Deserialize `instance_text` and build the serving session on a pool
  /// of `threads` workers. The text is freed once deserialized, so a
  /// serving process holds only the instance. With `breakdown`, every
  /// cache the workload's requests read is built here by its public
  /// accessor and timed.
  Server(const WorkloadConfig& config, std::string instance_text,
         std::size_t threads, SetupBreakdown* breakdown = nullptr);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  LineOutcome handle(const std::string& line, bool time_layers = false);

  const WorkloadConfig& config() const { return config_; }
  const mmlp::Instance& instance() const { return *instance_; }
  mmlp::ThreadPool& pool();
  bool sharded() const { return sharded_ != nullptr; }
  mmlp::engine::ShardedSession& sharded_session() { return *sharded_; }
  /// The flat session, or shard 0's session of a sharded server.
  mmlp::engine::Session& session();

 private:
  void build_caches(SetupBreakdown& breakdown);

  const WorkloadConfig& config_;
  std::unique_ptr<mmlp::Instance> instance_;
  std::unique_ptr<mmlp::engine::Session> session_;
  std::unique_ptr<mmlp::engine::ShardedSession> sharded_;
};

}  // namespace wirebench
