// Hand-rolled scanner for the flat JSONL request objects and the
// matching response serialiser. The accepted grammar is deliberately a
// subset of JSON — one object, string keys, scalar values (string /
// number / true / false) — because a solve request has no nesting; the
// subset keeps the tool dependency-free while every line it emits stays
// valid JSON for downstream tooling.
#include "mmlp/engine/wire.hpp"

#include <cctype>
#include <cmath>
#include <optional>
#include <string_view>

#include "mmlp/engine/sharded_session.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/fault.hpp"
#include "mmlp/util/obs.hpp"
#include "mmlp/util/parallel.hpp"
#include "mmlp/util/text.hpp"

namespace mmlp::engine {

namespace {

/// Cursor over one request line.
struct Scanner {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  bool done() {
    skip_ws();
    return pos >= text.size();
  }
  char peek() {
    skip_ws();
    MMLP_CHECK_MSG(pos < text.size(), "unexpected end of request line");
    return text[pos];
  }
  void expect(char c) {
    MMLP_CHECK_MSG(peek() == c, "expected '" << c << "' at offset " << pos
                                             << " of request line");
    ++pos;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      MMLP_CHECK_MSG(pos < text.size(), "unterminated string in request line");
      const char c = text[pos++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        MMLP_CHECK_MSG(pos < text.size(), "unterminated escape in request line");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default:
            MMLP_CHECK_MSG(false, "unsupported escape \\" << esc
                                      << " in request line");
        }
        continue;
      }
      out += c;
    }
  }
};

/// A scalar value: exactly one of the alternatives is set.
struct Scalar {
  enum class Kind { kString, kNumber, kBool } kind = Kind::kString;
  std::string string;
  double number = 0.0;
  bool boolean = false;
  std::string raw;  ///< original JSON text (for verbatim echo)
};

Scalar parse_scalar(Scanner& scanner) {
  Scalar value;
  const char c = scanner.peek();
  const std::size_t start = scanner.pos;
  if (c == '"') {
    value.kind = Scalar::Kind::kString;
    value.string = scanner.parse_string();
  } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '+') {
    value.kind = Scalar::Kind::kNumber;
    const std::string_view rest =
        std::string_view(scanner.text).substr(scanner.pos);
    const std::string_view token =
        rest.substr(0, rest.find_first_not_of("0123456789+-.eE"));
    const std::optional<double> number = parse_number<double>(token);
    MMLP_CHECK_MSG(number.has_value(), "malformed or out-of-range number '"
                                           << token << "' in request line");
    value.number = *number;
    scanner.pos += token.size();
  } else if (scanner.text.compare(scanner.pos, 4, "true") == 0) {
    value.kind = Scalar::Kind::kBool;
    value.boolean = true;
    scanner.pos += 4;
  } else if (scanner.text.compare(scanner.pos, 5, "false") == 0) {
    value.kind = Scalar::Kind::kBool;
    value.boolean = false;
    scanner.pos += 5;
  } else {
    MMLP_CHECK_MSG(false, "unsupported value at offset "
                              << scanner.pos
                              << " of request line (scalars only)");
  }
  value.raw = scanner.text.substr(start, scanner.pos - start);
  return value;
}

std::int64_t as_int(const Scalar& value, const std::string& key) {
  MMLP_CHECK_MSG(value.kind == Scalar::Kind::kNumber,
                 "request key '" << key << "' wants a number");
  const double rounded = std::nearbyint(value.number);
  MMLP_CHECK_MSG(rounded == value.number,
                 "request key '" << key << "' wants an integer, got "
                                 << value.number);
  // Reject magnitudes the int64 cast cannot represent (the cast would
  // be undefined behaviour, not a loud error). 2^63 is exact in double.
  MMLP_CHECK_MSG(rounded >= -9223372036854775808.0 &&
                     rounded < 9223372036854775808.0,
                 "request key '" << key << "' is out of integer range: "
                                 << rounded);
  return static_cast<std::int64_t>(rounded);
}

/// as_int for an int32 field: a value the narrowing cast would wrap is
/// an error, not a different number.
std::int32_t as_int32(const Scalar& value, const std::string& key) {
  const std::int64_t number = as_int(value, key);
  MMLP_CHECK_MSG(number == static_cast<std::int32_t>(number),
                 "request key '" << key << "' is out of int32 range: "
                                 << number);
  return static_cast<std::int32_t>(number);
}

double as_number(const Scalar& value, const std::string& key) {
  MMLP_CHECK_MSG(value.kind == Scalar::Kind::kNumber,
                 "request key '" << key << "' wants a number");
  return value.number;
}

bool as_bool(const Scalar& value, const std::string& key) {
  MMLP_CHECK_MSG(value.kind == Scalar::Kind::kBool,
                 "request key '" << key << "' wants true/false");
  return value.boolean;
}

std::string as_string(const Scalar& value, const std::string& key) {
  MMLP_CHECK_MSG(value.kind == Scalar::Kind::kString,
                 "request key '" << key << "' wants a string");
  return value.string;
}

/// "{" and the echoed `"id": <raw>, ` member when the request had one.
std::string open_line(const std::string& id) {
  std::string out = "{";
  if (!id.empty()) {
    append_text(out, "\"id\": ", id, ", ");
  }
  return out;
}

}  // namespace

AveragingDamping damping_from_name(const std::string& name) {
  if (name == "beta-per-agent") {
    return AveragingDamping::kBetaPerAgent;
  }
  if (name == "beta-global") {
    return AveragingDamping::kBetaGlobal;
  }
  if (name == "none") {
    return AveragingDamping::kNone;
  }
  if (name == "none-then-scale") {
    return AveragingDamping::kNoneThenScale;
  }
  MMLP_CHECK_MSG(false, "unknown damping '"
                            << name
                            << "' (beta-per-agent, beta-global, none, "
                               "none-then-scale)");
}

const char* to_name(AveragingDamping damping) {
  switch (damping) {
    case AveragingDamping::kBetaPerAgent: return "beta-per-agent";
    case AveragingDamping::kBetaGlobal: return "beta-global";
    case AveragingDamping::kNone: return "none";
    case AveragingDamping::kNoneThenScale: return "none-then-scale";
  }
  return "beta-per-agent";
}

namespace {

/// One level of array nesting — the only nesting the grammar accepts:
/// an array of scalars (remove_agents) or of flat objects (the
/// coefficient edit lists). Element kinds may not mix.
struct ArrayValue {
  bool objects = false;
  std::vector<Scalar> scalars;
  std::vector<std::vector<std::pair<std::string, Scalar>>> object_items;
};

ArrayValue parse_array(Scanner& scanner) {
  ArrayValue out;
  scanner.expect('[');
  if (scanner.peek() == ']') {
    ++scanner.pos;
    return out;
  }
  bool first = true;
  bool decided = false;
  while (true) {
    if (!first) {
      scanner.expect(',');
    }
    first = false;
    if (scanner.peek() == '{') {
      MMLP_CHECK_MSG(!decided || out.objects,
                     "mixed element kinds in a request-line array");
      out.objects = true;
      decided = true;
      scanner.expect('{');
      std::vector<std::pair<std::string, Scalar>> fields;
      bool first_field = true;
      while (scanner.peek() != '}') {
        if (!first_field) {
          scanner.expect(',');
        }
        first_field = false;
        std::string key = scanner.parse_string();
        scanner.expect(':');
        fields.emplace_back(std::move(key), parse_scalar(scanner));
      }
      scanner.expect('}');
      out.object_items.push_back(std::move(fields));
    } else {
      MMLP_CHECK_MSG(!(decided && out.objects),
                     "mixed element kinds in a request-line array");
      decided = true;
      out.scalars.push_back(parse_scalar(scanner));
    }
    if (scanner.peek() == ']') {
      ++scanner.pos;
      return out;
    }
  }
}

/// Field lookup inside one edit object, with the unknown-field check
/// the flat keys get from the main dispatch.
std::int32_t object_int(
    const std::vector<std::pair<std::string, Scalar>>& fields,
    const char* name, const char* context) {
  for (const auto& [key, value] : fields) {
    if (key == name) {
      return as_int32(value, name);
    }
  }
  MMLP_CHECK_MSG(false, context << " entry is missing '" << name << "'");
}

double object_number(const std::vector<std::pair<std::string, Scalar>>& fields,
                     const char* name, const char* context) {
  for (const auto& [key, value] : fields) {
    if (key == name) {
      return as_number(value, name);
    }
  }
  MMLP_CHECK_MSG(false, context << " entry is missing '" << name << "'");
}

void check_object_fields(
    const std::vector<std::pair<std::string, Scalar>>& fields,
    std::initializer_list<const char*> allowed, const char* context) {
  for (const auto& [key, value] : fields) {
    bool known = false;
    for (const char* name : allowed) {
      known = known || key == name;
    }
    MMLP_CHECK_MSG(known, "unknown field '" << key << "' in a " << context
                                            << " entry");
  }
}

void apply_solve_key(SolveRequest& request, const std::string& key,
                     const Scalar& value) {
  if (key == "algorithm") {
    request.algorithm = as_string(value, key);
  } else if (key == "R") {
    request.R = as_int32(value, key);
  } else if (key == "damping") {
    request.damping = damping_from_name(as_string(value, key));
  } else if (key == "collaboration_oblivious") {
    request.collaboration_oblivious = as_bool(value, key);
  } else if (key == "deduplicate") {
    request.deduplicate = as_bool(value, key);
  } else if (key == "incremental") {
    request.incremental = as_bool(value, key);
  } else if (key == "threads") {
    const std::int64_t threads = as_int(value, key);
    MMLP_CHECK_MSG(threads >= 0, "request key 'threads' must be >= 0 (0 = "
                                 "the session pool), got " << threads);
    request.threads = static_cast<std::size_t>(threads);
  } else if (key == "shards") {
    request.shards = as_int32(value, key);
  } else if (key == "seed") {
    request.seed = static_cast<std::uint64_t>(as_int(value, key));
  } else if (key == "samples") {
    request.samples = as_int32(value, key);
  } else if (key == "confidence") {
    request.confidence = as_number(value, key);
  } else if (key == "greedy_max_steps") {
    request.greedy.max_steps = as_int(value, key);
  } else if (key == "greedy_step_fraction") {
    request.greedy.step_fraction = as_number(value, key);
  } else if (key == "greedy_min_gain") {
    request.greedy.min_gain = as_number(value, key);
  } else if (key == "simplex_max_iterations") {
    request.simplex.max_iterations = as_int(value, key);
  } else if (key == "trace") {
    request.trace = as_bool(value, key);
  } else if (key == "deadline_ms") {
    const std::int64_t deadline = as_int(value, key);
    MMLP_CHECK_MSG(deadline >= 0,
                   "request key 'deadline_ms' must be >= 0 (0 = unlimited), "
                   "got " << deadline);
    request.deadline_ms = deadline;
  } else if (key == "fault_plan") {
    request.fault_plan = as_string(value, key);
    if (!request.fault_plan.empty()) {
      // Validate eagerly so a malformed plan is rejected at the wire
      // boundary (code "validate") instead of mid-solve.
      FaultPlan::parse(request.fault_plan);
    }
  } else {
    MMLP_CHECK_MSG(false, "unknown request key '" << key << "'");
  }
}

void apply_update_key(InstanceDelta& delta, const std::string& key,
                      bool is_array, const Scalar& scalar,
                      const ArrayValue& array) {
  const auto want_objects = [&](const char* context) {
    MMLP_CHECK_MSG(is_array && array.scalars.empty(),
                   "update key '" << context
                                  << "' wants an array of objects");
  };
  if (key == "set_usage") {
    want_objects("set_usage");
    for (const auto& fields : array.object_items) {
      check_object_fields(fields, {"i", "v", "a"}, "set_usage");
      delta.set_usage(
          static_cast<ResourceId>(object_int(fields, "i", "set_usage")),
          static_cast<AgentId>(object_int(fields, "v", "set_usage")),
          object_number(fields, "a", "set_usage"));
    }
  } else if (key == "erase_usage") {
    want_objects("erase_usage");
    for (const auto& fields : array.object_items) {
      check_object_fields(fields, {"i", "v"}, "erase_usage");
      delta.erase_usage(
          static_cast<ResourceId>(object_int(fields, "i", "erase_usage")),
          static_cast<AgentId>(object_int(fields, "v", "erase_usage")));
    }
  } else if (key == "set_benefit") {
    want_objects("set_benefit");
    for (const auto& fields : array.object_items) {
      check_object_fields(fields, {"k", "v", "c"}, "set_benefit");
      delta.set_benefit(
          static_cast<PartyId>(object_int(fields, "k", "set_benefit")),
          static_cast<AgentId>(object_int(fields, "v", "set_benefit")),
          object_number(fields, "c", "set_benefit"));
    }
  } else if (key == "erase_benefit") {
    want_objects("erase_benefit");
    for (const auto& fields : array.object_items) {
      check_object_fields(fields, {"k", "v"}, "erase_benefit");
      delta.erase_benefit(
          static_cast<PartyId>(object_int(fields, "k", "erase_benefit")),
          static_cast<AgentId>(object_int(fields, "v", "erase_benefit")));
    }
  } else if (key == "remove_agents") {
    MMLP_CHECK_MSG(is_array && array.object_items.empty(),
                   "update key 'remove_agents' wants an array of ints");
    for (const Scalar& value : array.scalars) {
      delta.remove_agent(as_int32(value, key));
    }
  } else if (key == "add_agents") {
    delta.add_agents(as_int32(scalar, key));
  } else if (key == "add_resources") {
    delta.add_resources(as_int32(scalar, key));
  } else if (key == "add_parties") {
    delta.add_parties(as_int32(scalar, key));
  } else {
    MMLP_CHECK_MSG(false, "unknown update key '" << key << "'");
  }
}

}  // namespace

WireCommand parse_command_line(const std::string& line) {
  // First pass: collect every (key, value) — "op" may appear anywhere
  // in the object, so dispatch happens after the scan.
  struct Item {
    std::string key;
    bool is_array = false;
    Scalar scalar;
    ArrayValue array;
  };
  std::vector<Item> items;
  // The scanning pass is the *grammar*: its failures rethrow as
  // WireParseError (error code "parse"). The dispatch below is
  // semantics on a well-formed line (code "validate").
  try {
    Scanner scanner{line};
    scanner.expect('{');
    bool first = true;
    while (scanner.peek() != '}') {
      if (!first) {
        scanner.expect(',');
      }
      first = false;
      Item item;
      item.key = scanner.parse_string();
      scanner.expect(':');
      if (scanner.peek() == '[') {
        item.is_array = true;
        item.array = parse_array(scanner);
      } else {
        item.scalar = parse_scalar(scanner);
      }
      items.push_back(std::move(item));
    }
    scanner.expect('}');
    MMLP_CHECK_MSG(scanner.done(),
                   "trailing content after request object: '"
                       << line.substr(scanner.pos) << "'");
  } catch (const WireParseError&) {
    throw;
  } catch (const CheckError& error) {
    throw WireParseError(error.what());
  }

  std::string op = "solve";
  for (const Item& item : items) {
    if (item.key == "op") {
      MMLP_CHECK_MSG(!item.is_array, "request key 'op' wants a string");
      op = as_string(item.scalar, "op");
    }
  }

  WireCommand command;
  if (op == "solve") {
    command.kind = WireCommand::Kind::kSolve;
    for (const Item& item : items) {
      if (item.key == "op") {
        continue;
      }
      if (item.key == "id") {
        MMLP_CHECK_MSG(!item.is_array, "request key 'id' wants a scalar");
        command.id = item.scalar.raw;
        continue;
      }
      MMLP_CHECK_MSG(!item.is_array, "solve request key '"
                                         << item.key << "' wants a scalar");
      apply_solve_key(command.request, item.key, item.scalar);
    }
  } else if (op == "update") {
    command.kind = WireCommand::Kind::kUpdate;
    for (const Item& item : items) {
      if (item.key == "op") {
        continue;
      }
      if (item.key == "id") {
        MMLP_CHECK_MSG(!item.is_array, "request key 'id' wants a scalar");
        command.id = item.scalar.raw;
        continue;
      }
      apply_update_key(command.delta, item.key, item.is_array, item.scalar,
                       item.array);
    }
  } else if (op == "stats") {
    command.kind = WireCommand::Kind::kStats;
    for (const Item& item : items) {
      if (item.key == "op") {
        continue;
      }
      if (item.key == "id") {
        MMLP_CHECK_MSG(!item.is_array, "request key 'id' wants a scalar");
        command.id = item.scalar.raw;
        continue;
      }
      MMLP_CHECK_MSG(false, "unknown stats key '" << item.key
                                                  << "' (only id)");
    }
  } else {
    MMLP_CHECK_MSG(false, "unknown op '" << op << "' (solve, update, stats)");
  }
  return command;
}

WireRequest parse_request_line(const std::string& line) {
  WireCommand command = parse_command_line(line);
  MMLP_CHECK_MSG(command.kind == WireCommand::Kind::kSolve,
                 "expected a solve request, got an update command");
  return {std::move(command.request), std::move(command.id)};
}

std::string apply_report_to_json_line(const Session::ApplyReport& report,
                                      const std::string& id) {
  std::string out = open_line(id);
  append_text(out, "\"op\": \"update\", \"revision\": ", report.revision,
              ", \"structural\": ", report.structural,
              ", \"rebuilt\": ", report.rebuilt,
              ", \"touched_agents\": ", report.touched_agents,
              ", \"repaired_entries\": ", report.repaired_entries,
              ", \"apply_ms\": ", report.apply_ms, '}');
  return out;
}

namespace {

/// Per-worker scheduler counters (see ThreadPool::WorkerStats): a
/// lopsided busy/idle split means a serial stage is starving the pool,
/// and chunks shows how finely the bulk scheduler carved the work.
void append_workers(std::string& out,
                    const std::vector<ThreadPool::WorkerStats>& workers) {
  out += ", \"workers\": [";
  for (std::size_t w = 0; w < workers.size(); ++w) {
    append_text(out, w > 0 ? ", " : "", "{\"busy_ns\": ", workers[w].busy_ns,
                ", \"idle_ns\": ", workers[w].idle_ns,
                ", \"chunks\": ", workers[w].chunks, '}');
  }
  out += ']';
}

/// Cache, scratch and fault/recovery/guardrail totals for the stats op.
/// The fault totals also appear inside "metrics", but stream consumers
/// watching recovery health should not have to know obs counter names.
void append_session_stats(std::string& out, const SessionStats& stats) {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  const auto counter = [&](const char* name) -> std::int64_t {
    const auto it = snapshot.counters.find(name);
    return it != snapshot.counters.end() ? it->second : 0;
  };
  append_text(out, ", \"cache_hits\": ", stats.cache_hits,
              ", \"cache_misses\": ", stats.cache_misses,
              ", \"cache_build_ms\": ", stats.cache_build_ms,
              ", \"scratch_created\": ", stats.scratch_created,
              ", \"scratch_reused\": ", stats.scratch_reused,
              ", \"faults_injected\": ", counter("fault.injected"),
              ", \"recoveries\": ", counter("selfstab.recoveries"),
              ", \"rounds_to_legitimate\": ",
              counter("selfstab.rounds_to_legitimate"),
              ", \"timeouts\": ", counter("engine.timeouts"),
              ", \"cancellations\": ", counter("engine.cancellations"),
              ", \"integrity_fallbacks\": ", stats.integrity_fallbacks);
}

/// The pool counters and the registry snapshot (already one JSON
/// object, embedded verbatim) that close every stats line.
std::string close_stats_line(std::string out, const ThreadPool& pool) {
  append_workers(out, pool.worker_stats());
  append_text(out, ", \"metrics\": ", obs::Registry::global().to_json_line(),
              '}');
  return out;
}

}  // namespace

std::string stats_to_json_line(Session& session, const std::string& id) {
  std::string out = open_line(id);
  append_text(out, "\"op\": \"stats\", \"revision\": ", session.revision(),
              ", \"agents\": ", session.instance().num_agents());
  append_session_stats(out, session.stats());
  return close_stats_line(std::move(out), session.pool() != nullptr
                                               ? *session.pool()
                                               : ThreadPool::global());
}

std::string stats_to_json_line(ShardedSession& session,
                               const std::string& id) {
  std::string out = open_line(id);
  append_text(out, "\"op\": \"stats\", \"revision\": ",
              session.instance().revision(),
              ", \"agents\": ", session.instance().num_agents(),
              ", \"shards\": ", session.num_shards(),
              ", \"halo_radius\": ", session.halo_radius(),
              ", \"halo_agents\": ", session.halo_agents());
  append_session_stats(out, session.stats());
  append_text(out, ", \"pool_threads\": ", session.worker_threads());
  return close_stats_line(std::move(out), session.pool());
}

std::string error_to_json_line(const std::string& code,
                               const std::string& message,
                               std::size_t line_number) {
  std::string out;
  append_text(out, "{\"error\": ", Quoted{message}, ", \"code\": ",
              Quoted{code}, ", \"line\": ", line_number, '}');
  return out;
}

std::string result_to_json_line(const SolveResult& result,
                                const std::string& id, bool emit_x) {
  std::string out = open_line(id);
  // The longest shortest-form double is 24 characters, plus ", ".
  out.reserve(out.size() + 512 + (emit_x ? 26 * result.x.size() : 0));
  append_text(out, "\"algorithm\": ", Quoted{result.algorithm},
              ", \"status\": \"", solve_status_name(result.status), '"');
  if (result.status != SolveStatus::kOk) {
    append_text(out, ", \"error\": ", Quoted{result.error});
  }
  if (result.has_solution) {
    append_text(out, ", \"omega\": ", result.omega,
                ", \"feasible\": ", result.feasible,
                ", \"agents\": ", result.x.size());
  }
  append_text(out, ", \"total_ms\": ", result.total_ms,
              ", \"cache_build_ms\": ", result.cache_build_ms,
              ", \"solve_ms\": ", result.solve_ms,
              ", \"cache_hits\": ", result.cache_hits,
              ", \"cache_misses\": ", result.cache_misses);
  if (!result.counters.empty()) {
    out += ", \"counters\": ";
    append_json_object(out, result.counters);
  }
  if (!result.diagnostics.empty()) {
    out += ", \"diagnostics\": ";
    append_json_object(out, result.diagnostics);
  }
  if (emit_x && result.has_solution) {
    out += ", \"x\": [";
    for (std::size_t v = 0; v < result.x.size(); ++v) {
      append_text(out, v > 0 ? ", " : "", result.x[v]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace mmlp::engine
