// JSONL wire format of the batch front-end (tools/mmlp_batch).
//
// Commands arrive one JSON object per line. A *solve* line is flat
// key → scalar:
//
//   {"algorithm": "averaging", "R": 2, "simplex_max_iterations": 100000}
//
// Recognised solve keys (all optional except algorithm):
//   algorithm               string   registry name
//   R                       int      view radius
//   damping                 string   beta-per-agent | beta-global | none |
//                                    none-then-scale
//   collaboration_oblivious bool
//   deduplicate             bool     one LP per view orbit (bitwise-equal
//                                    output; averaging only)
//   incremental             bool     splice the dirty region of applied
//                                    updates into the previous result
//                                    (safe and averaging only)
//   threads                 int      must match the session pool when set
//   shards                  int      must match the serving ShardedSession
//                                    when set (mmlp_batch --shards N); a
//                                    flat session serves only 0 and 1
//   seed                    int      sublinear sampling seed
//   samples                 int      sublinear sample count
//   confidence              number   sublinear Hoeffding level
//   greedy_max_steps        int
//   greedy_step_fraction    number
//   greedy_min_gain         number
//   simplex_max_iterations  int
//   trace                   bool     span tracer on for this request
//   deadline_ms             int      wall-clock budget; 0 = unlimited. An
//                                    exceeded deadline answers an error
//                                    line with code "timeout"
//   fault_plan              string   FaultPlan grammar (selfstab-* only),
//                                    e.g. "s7;0:drop:3:5;1:crash:2";
//                                    validated at parse time
//   id                      any scalar, echoed verbatim into the response
//
// An *update* line carries "op": "update" plus an InstanceDelta; the
// coefficient edits are arrays of flat objects and the removals an
// array of ints (the only nesting the grammar accepts — one level, no
// recursion):
//
//   {"op": "update", "set_usage": [{"i": 3, "v": 7, "a": 0.5}],
//    "erase_benefit": [{"k": 1, "v": 2}], "add_agents": 1,
//    "remove_agents": [4], "id": 9}
//
// Update keys: set_usage [{i,v,a}], erase_usage [{i,v}], set_benefit
// [{k,v,c}], erase_benefit [{k,v}], add_agents, add_resources,
// add_parties (ints), remove_agents ([ints]), id. A hot batch session
// interleaves updates and (incremental) solves: mmlp_batch routes
// updates through Session::apply, which repairs the caches surgically.
//
// A *stats* line — {"op": "stats", "id": 7} — takes no other keys and
// answers with the observability state of the process: the session's
// cache/scratch stats, the per-worker busy/idle/chunk counts of its
// thread pool, and the global obs::Registry metrics (counters, gauges,
// histogram percentiles).
//
// Numbers use the shared text grammar (util/text.hpp): a JSON number
// that is out of double range (1e400, 1e-400) is a parse error, never
// inf or 0. Every double in a response is written in its shortest
// round-trip form, so equal text means equal bits. JSON has no inf, so
// the two values that are +inf by definition go out as null: "omega" of
// an instance without parties (the min over no party), and the
// averaging diagnostic "ratio_bound" when some S_k is empty (possible
// with collaboration_oblivious). Any other inf or nan in a result is a
// CheckError.
//
// Unknown keys are a CheckError (typos in request streams fail loudly,
// matching the ArgParser convention). Responses are emitted one JSON
// object per line with the evaluation, diagnostics and the timing/cache
// breakdown; the solution vector rides along only when asked (emit_x) —
// at 10^5 agents it dominates the payload.
//
// Error lines carry a stable `code` field so stream consumers can
// dispatch without parsing the message text:
//   parse      the line is not in the wire grammar (malformed JSON)
//   validate   well-formed but semantically rejected (unknown key, bad
//              enum name, negative deadline or threads, an int outside
//              its int32 field, malformed fault plan, ...)
//   timeout    deadline_ms elapsed before the solve finished
//   cancelled  the solve was cancelled
//   internal   anything else (a bug — CheckError is the contract)
#pragma once

#include <cstddef>
#include <string>

#include "mmlp/engine/solver.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/text.hpp"

namespace mmlp::engine {

/// Thrown when a wire line fails the *grammar* (scanner-level JSON
/// errors), as opposed to a well-formed line whose content is rejected
/// (plain CheckError). Subclassing CheckError keeps the long-standing
/// contract that the wire parser only ever throws CheckError; callers
/// that care about the distinction catch WireParseError first.
class WireParseError : public CheckError {
 public:
  explicit WireParseError(const std::string& what) : CheckError(what) {}
};

/// A parsed command line: a solve request, an instance update, or a
/// metrics snapshot query.
struct WireCommand {
  enum class Kind { kSolve, kUpdate, kStats };
  Kind kind = Kind::kSolve;
  SolveRequest request;  ///< kSolve
  InstanceDelta delta;   ///< kUpdate
  std::string id;        ///< raw JSON scalar text ("" when absent)
};

/// Parse one JSONL command line (solve, update, or stats). Throws
/// CheckError on malformed JSON, bad enum names, unknown keys, or solve
/// keys on an update line (and vice versa).
WireCommand parse_command_line(const std::string& line);

/// Serialise the response to an applied update (no trailing newline).
std::string apply_report_to_json_line(const Session::ApplyReport& report,
                                      const std::string& id);

/// Serialise the response to an op:"stats" query (no trailing newline):
/// session cache/scratch stats, per-worker pool stats, and the global
/// obs::Registry snapshot.
std::string stats_to_json_line(Session& session, const std::string& id);

class ShardedSession;  // engine/sharded_session.hpp

/// The sharded variant: aggregated cache/scratch stats over the shard
/// sessions plus the shard topology (shards, halo_radius, halo_agents).
std::string stats_to_json_line(ShardedSession& session, const std::string& id);

/// Serialise one response line (no trailing newline). `emit_x` includes
/// the full solution vector. Every line carries "status"; non-ok lines
/// (timeout/cancelled) add "error" and omit the solution fields.
std::string result_to_json_line(const SolveResult& result,
                                const std::string& id, bool emit_x);

/// Serialise one error line (no trailing newline):
/// {"error": <message>, "code": <code>, "line": N}. `code` must be one
/// of the stable codes documented above.
std::string error_to_json_line(const std::string& code,
                               const std::string& message,
                               std::size_t line_number);

/// Names accepted by the "damping" request key, mapped to the enum.
AveragingDamping damping_from_name(const std::string& name);
const char* to_name(AveragingDamping damping);

/// JSON string escaping, shared with the other JSON writers.
using mmlp::json_escape;

}  // namespace mmlp::engine
