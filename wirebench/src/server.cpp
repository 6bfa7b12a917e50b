#include "server.hpp"

#include <utility>

#include "stats.hpp"

namespace wirebench {

using mmlp::engine::Session;
using mmlp::engine::WireCommand;

Server::Server(const WorkloadConfig& config, std::string instance_text,
               std::size_t threads, SetupBreakdown* breakdown)
    : config_(config) {
  const std::uint64_t start_ns = now_ns();
  instance_ = std::make_unique<mmlp::Instance>(
      mmlp::Instance::deserialize(instance_text));
  std::string().swap(instance_text);
  const std::uint64_t deserialized_ns = now_ns();
  if (config.shards >= 2) {
    sharded_ = std::make_unique<mmlp::engine::ShardedSession>(
        std::as_const(*instance_),
        mmlp::engine::ShardedOptions{
            .shards = config.shards, .halo_radius = 3, .threads = threads});
  } else if (config.mutable_session) {
    session_ = std::make_unique<Session>(
        *instance_, mmlp::engine::SessionOptions{.threads = threads});
  } else {
    session_ = std::make_unique<Session>(
        std::as_const(*instance_),
        mmlp::engine::SessionOptions{.threads = threads});
  }
  if (breakdown != nullptr) {
    breakdown->deserialize_ms = ms_between(start_ns, deserialized_ns);
    breakdown->construct_ms = ms_between(deserialized_ns, now_ns());
    build_caches(*breakdown);
  }
}

void Server::build_caches(SetupBreakdown& breakdown) {
  if (config_.algorithm != "averaging") {
    return;  // safe reads the instance only
  }
  const bool dedup = config_.shards >= 2;
  auto build = [&](Session& session) {
    std::uint64_t t = now_ns();
    auto lap = [&t](double& total) {
      const std::uint64_t now = now_ns();
      total += ms_between(t, now);
      t = now;
    };
    session.graph(false);
    lap(breakdown.graph_ms);
    session.balls(1, false);
    lap(breakdown.balls_ms);
    session.growth_sets(1, false);
    lap(breakdown.growth_ms);
    if (dedup) {
      session.view_classes(1, false);
      lap(breakdown.view_classes_ms);
    }
  };
  if (sharded_ != nullptr) {
    for (std::int32_t s = 0; s < sharded_->num_shards(); ++s) {
      build(sharded_->shard_session(s));
    }
  } else {
    build(*session_);
  }
}

mmlp::ThreadPool& Server::pool() {
  return sharded_ != nullptr ? sharded_->pool() : *session_->pool();
}

Session& Server::session() {
  return sharded_ != nullptr ? sharded_->shard_session(0) : *session_;
}

LineOutcome Server::handle(const std::string& line, bool time_layers) {
  namespace engine = mmlp::engine;
  LineOutcome out;
  auto stamp = [time_layers](std::uint64_t& slot) {
    if (time_layers) {
      slot = now_ns();
    }
  };
  stamp(out.start_ns);
  try {
    WireCommand command = engine::parse_command_line(line);
    stamp(out.parsed_ns);
    out.kind = command.kind;
    switch (command.kind) {
      case WireCommand::Kind::kSolve:
        out.result = sharded_ != nullptr
                         ? sharded_->solve(command.request)
                         : engine::solve(*session_, command.request);
        stamp(out.dispatched_ns);
        out.encoded =
            engine::result_to_json_line(out.result, command.id, config_.emit_x);
        out.error = out.result.status != engine::SolveStatus::kOk;
        break;
      case WireCommand::Kind::kUpdate:
        out.report = sharded_ != nullptr ? sharded_->apply(command.delta)
                                         : session_->apply(command.delta);
        stamp(out.dispatched_ns);
        out.encoded = engine::apply_report_to_json_line(out.report, command.id);
        break;
      case WireCommand::Kind::kStats:
        MMLP_CHECK_MSG(false, "the benchmark streams no stats lines");
    }
  } catch (const engine::WireParseError& error) {
    out.error = true;
    out.encoded = engine::error_to_json_line("parse", error.what(), 0);
  } catch (const mmlp::CheckError& error) {
    out.error = true;
    out.encoded = engine::error_to_json_line("validate", error.what(), 0);
  } catch (const std::exception& error) {
    out.error = true;
    out.encoded = engine::error_to_json_line("internal", error.what(), 0);
  }
  stamp(out.end_ns);
  if (time_layers) {
    // A line that failed early has no later stamps; close them at the end.
    out.parsed_ns = out.parsed_ns != 0 ? out.parsed_ns : out.end_ns;
    out.dispatched_ns = out.dispatched_ns != 0 ? out.dispatched_ns : out.end_ns;
  }
  return out;
}

}  // namespace wirebench
