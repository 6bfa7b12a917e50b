// Wire-layer robustness: no input line may take the batch down.
//
// Two layers of the same property. In-process: a seeded generator
// mutates valid JSONL commands into truncations, type confusions,
// huge numbers, control characters, deep nesting, and raw garbage,
// and parse_command_line must either return a command or throw
// CheckError — never any other exception type, never crash. End to
// end (when the ctest environment carries MMLP_BATCH_BIN): mmlp_batch
// fed a batch interleaving valid and malformed lines must emit one
// {"error": ..., "line": N} object per bad line, keep serving the
// rest, and exit 0 — and flip to a nonzero exit only under
// --fail-fast. Its --fault-plan default reaches only the registry's
// faultable entries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mmlp/core/instance.hpp"
#include "mmlp/engine/wire.hpp"
#include "mmlp/util/check.hpp"
#include "mmlp/util/rng.hpp"

namespace mmlp {
namespace {

const std::vector<std::string>& seed_lines() {
  static const std::vector<std::string> lines = {
      R"({"algorithm": "averaging", "R": 2, "deduplicate": true})",
      R"({"algorithm": "safe", "id": 7})",
      R"({"algorithm": "sublinear", "seed": 3, "samples": 40})",
      R"({"op": "update", "set_usage": [{"i": 3, "v": 7, "a": 0.5}]})",
      R"({"op": "update", "add_agents": 2, "remove_agents": [4, 5]})",
      R"({"op": "stats", "id": "q"})",
      R"({"algorithm": "averaging", "damping": "beta-per-agent"})",
      R"({"algorithm": "safe", "shards": 4, "threads": 2})",
      R"({"algorithm": "averaging", "deadline_ms": 250})",
      R"({"algorithm": "selfstab-safe", "fault_plan": "s7;0:drop:3:5;1:crash:2"})",
  };
  return lines;
}

std::string random_garbage(Rng& rng, std::size_t length) {
  std::string line;
  line.reserve(length);
  for (std::size_t c = 0; c < length; ++c) {
    line.push_back(static_cast<char>(1 + rng.next_below(255)));
  }
  return line;
}

/// One mutated line per call; cycles through the failure families.
std::string mutate(Rng& rng, std::uint64_t kind) {
  const std::vector<std::string>& seeds = seed_lines();
  const std::string& base =
      seeds[static_cast<std::size_t>(rng.next_below(seeds.size()))];
  switch (kind % 13) {
    case 0: {  // truncation: cut anywhere, including mid-token
      const std::size_t cut = 1 + rng.next_below(base.size() - 1);
      return base.substr(0, cut);
    }
    case 1:  // wrong value types
      return R"({"algorithm": 3})";
    case 2:  // string where a number belongs / bad enum name
      return rng.next_below(2) == 0 ? R"({"R": "two"})"
                                    : R"({"damping": "overdamped"})";
    case 3:  // huge and non-integral numbers
      switch (rng.next_below(3)) {
        case 0: return R"({"R": 99999999999999999999999999})";
        case 1: return R"({"threads": 1e999})";
        default: return R"({"samples": 2.5})";
      }
    case 4: {  // raw control characters inside a token
      std::string line = base;
      line[1 + rng.next_below(line.size() - 2)] =
          static_cast<char>(rng.next_below(32));
      return line;
    }
    case 5:  // unknown keys fail loudly
      return rng.next_below(2) == 0 ? R"({"algorithmm": "safe"})"
                                    : R"({"op": "stats", "frobnicate": 1})";
    case 6:  // nesting beyond the one level updates allow
      switch (rng.next_below(3)) {
        case 0: return R"({"op": "update", "set_usage": {"i": 1}})";
        case 1: return R"({"set_usage": [[1, 2]]})";
        default: return R"({"a": {"b": {"c": 1}}})";
      }
    case 7:  // non-object toplevels
      switch (rng.next_below(4)) {
        case 0: return "[1, 2]";
        case 1: return "42";
        case 2: return "\"averaging\"";
        default: return "null";
      }
    case 8: {  // random byte flip in a valid line
      std::string line = base;
      line[rng.next_below(line.size())] =
          static_cast<char>(1 + rng.next_below(255));
      return line;
    }
    case 9:  // solve keys on an update line and vice versa
      return rng.next_below(2) == 0
                 ? R"({"op": "update", "algorithm": "safe"})"
                 : R"({"algorithm": "safe", "set_usage": [{"i": 1, "v": 2, "a": 3}]})";
    case 10:  // unterminated structures
      switch (rng.next_below(3)) {
        case 0: return R"({"algorithm": "safe")";
        case 1: return R"({"op": "update", "remove_agents": [1, 2)";
        default: return R"({"id": "unterminated)";
      }
    case 11:  // bad deadlines and fault plans
      switch (rng.next_below(6)) {
        case 0: return R"({"algorithm": "safe", "deadline_ms": -1})";
        case 1:
          return R"({"deadline_ms": 99999999999999999999999999})";
        case 2: return R"({"deadline_ms": 2.5})";
        case 3: return R"({"algorithm": "selfstab-safe", "fault_plan": "nope"})";
        case 4:
          return R"({"fault_plan": "s7;0:drop:3"})";  // message fault, no peer
        default:
          return R"({"fault_plan": "s7;0:flood:1:2"})";  // unknown kind
      }
    default:  // pure garbage bytes
      return random_garbage(rng, 1 + rng.next_below(120));
  }
}

TEST(WireFuzz, ParserOnlyEverThrowsCheckError) {
  std::uint64_t parsed = 0;
  std::uint64_t rejected = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    for (std::uint64_t round = 0; round < 600; ++round) {
      const std::string line = mutate(rng, round);
      try {
        (void)engine::parse_command_line(line);
        ++parsed;  // some mutations stay valid — that is fine
      } catch (const CheckError&) {
        ++rejected;  // the only exception type the wire layer may emit
      }
      // Anything else (std::out_of_range, std::bad_alloc from a bogus
      // length, a segfault) escapes and fails the test run.
    }
  }
  // The generator must actually exercise both sides of the property.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(parsed, 0u);
}

TEST(WireFuzz, ValidSeedsStillParse) {
  for (const std::string& line : seed_lines()) {
    EXPECT_NO_THROW((void)engine::parse_command_line(line)) << line;
  }
}

TEST(WireFuzz, DeadlineAndFaultPlanKeysParse) {
  const engine::WireCommand deadline = engine::parse_command_line(
      R"({"algorithm": "averaging", "deadline_ms": 250})");
  EXPECT_EQ(deadline.request.deadline_ms, 250);
  // Absent keys keep the unlimited / fault-free defaults.
  EXPECT_EQ(engine::parse_command_line(R"({"algorithm": "safe"})")
                .request.deadline_ms,
            0);
  const engine::WireCommand faulty = engine::parse_command_line(
      R"({"algorithm": "selfstab-safe", "fault_plan": "s7;0:drop:3:5"})");
  EXPECT_EQ(faulty.request.fault_plan, "s7;0:drop:3:5");
}

/// Well-formed JSON whose content is rejected stays a plain CheckError
/// (wire code "validate"), never a WireParseError.
void expect_validate_errors(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    try {
      (void)engine::parse_command_line(line);
      ADD_FAILURE() << "expected CheckError: " << line;
    } catch (const engine::WireParseError&) {
      ADD_FAILURE() << "semantic rejection misclassified as parse error: "
                    << line;
    } catch (const CheckError&) {
      // expected: wire code "validate"
    }
  }
}

TEST(WireFuzz, BadDeadlinesAndPlansAreValidateNotParse) {
  expect_validate_errors({
      R"({"algorithm": "safe", "deadline_ms": -1})",
      R"({"deadline_ms": 99999999999999999999999999})",
      R"({"deadline_ms": 2.5})",
      R"({"fault_plan": "nope"})",
      R"({"fault_plan": "s7;0:drop:3"})",
      R"({"fault_plan": "s7;0:flood:1:2"})",
  });
}

TEST(WireFuzz, IntegersThatWouldWrapAreValidateErrors) {
  // int32 fields and the unsigned thread count take the wire integer
  // only when the cast keeps it: 2^32 + 1 must not solve as R = 1, and
  // -1 threads must not ask for 2^64 - 1 workers.
  expect_validate_errors({
      R"({"algorithm": "averaging", "R": 4294967297})",
      R"({"algorithm": "averaging", "R": -2147483649})",
      R"({"algorithm": "safe", "shards": 4294967300})",
      R"({"algorithm": "sublinear", "samples": 4294967360})",
      R"({"algorithm": "safe", "threads": -1})",
      R"({"op": "update", "add_agents": 4294967297})",
      R"({"op": "update", "remove_agents": [4294967296]})",
      R"({"op": "update", "set_usage": [{"i": 4294967296, "v": 0, "a": 1}]})",
  });
  // The int32 extremes and zero threads still parse unchanged.
  const engine::WireCommand edge = engine::parse_command_line(
      R"({"R": 2147483647, "shards": -2147483648, "samples": 7, "threads": 0})");
  EXPECT_EQ(edge.request.R, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(edge.request.shards, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(edge.request.samples, 7);
  EXPECT_EQ(edge.request.threads, 0u);
}

TEST(WireFuzz, MalformedJsonIsAWireParseError) {
  const std::vector<std::string> malformed = {
      R"({"algorithm": "safe")",  // unterminated object
      "[1, 2]",                   // non-object toplevel
      "{bad json",                // raw garbage
  };
  for (const std::string& line : malformed) {
    EXPECT_THROW((void)engine::parse_command_line(line),
                 engine::WireParseError)
        << line;
  }
}

TEST(WireFuzz, OutOfRangeNumbersAreAWireParseError) {
  // Read leniently, 1e400 would reach the served instance as inf and
  // 1e-400 as 0; both are malformed numbers, not values.
  const std::vector<std::string> out_of_range = {
      R"({"op": "update", "set_usage": [{"i": 0, "v": 0, "a": 1e400}]})",
      R"({"op": "update", "set_usage": [{"i": 0, "v": 0, "a": 1e-400}]})",
      R"({"op": "update", "set_benefit": [{"k": 0, "v": 0, "c": -1e400}]})",
      R"({"algorithm": "sublinear", "confidence": 1e999})",
  };
  for (const std::string& line : out_of_range) {
    EXPECT_THROW((void)engine::parse_command_line(line), engine::WireParseError)
        << line;
  }
  // The smallest subnormal is in range and still parses.
  const engine::WireCommand tiny = engine::parse_command_line(
      R"({"op": "update", "set_usage": [{"i": 0, "v": 0, "a": +4.9e-324}]})");
  ASSERT_EQ(tiny.delta.usages.size(), 1u);
  EXPECT_EQ(tiny.delta.usages[0].value, 4.9e-324);
}

TEST(WireFuzz, NonFiniteCoefficientsNeverReachAnInstance) {
  const double inf = std::numeric_limits<double>::infinity();
  InstanceDelta delta;
  EXPECT_THROW(delta.set_usage(0, 0, inf), CheckError);
  EXPECT_THROW(delta.set_benefit(0, 0, std::nan("")), CheckError);
  EXPECT_TRUE(delta.empty());
  Instance::Builder builder;
  EXPECT_THROW(builder.set_usage(0, 0, inf), CheckError);
  EXPECT_THROW(builder.set_benefit(0, 0, inf), CheckError);
}

// ---------------------------------------------------------------------------
// End to end: a poisoned batch never kills mmlp_batch
// ---------------------------------------------------------------------------

/// Exit code of one batch run. The command goes through /bin/sh, so a
/// batch killed by a signal reads as 128 + the signal number.
int run_batch(const std::string& binary, const std::string& extra_flags,
              const std::string& requests_path, const std::string& out_path,
              const std::string& stderr_path = "/dev/null") {
  const std::string command = binary +
                              " --generate grid_torus --agents 64 --requests " +
                              requests_path + " --out " + out_path + " " +
                              extra_flags + " 2> " + stderr_path;
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

TEST(WireFuzz, BatchSurvivesPoisonedRequestStream) {
  const char* binary = std::getenv("MMLP_BATCH_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "MMLP_BATCH_BIN not set (tools not built)";
  }

  const std::string requests_path = "wire_fuzz_requests.jsonl";
  const std::string out_path = "wire_fuzz_results.jsonl";
  {
    std::ofstream requests(requests_path);
    ASSERT_TRUE(requests.good());
    requests << R"({"algorithm": "safe", "id": 1})" << "\n";
    Rng rng(42);
    for (std::uint64_t round = 0; round < 50; ++round) {
      std::string line = mutate(rng, round);
      for (char& c : line) {
        if (c == '\n') {
          c = ' ';  // keep one command per line
        }
      }
      requests << line << "\n";
    }
    requests << "# a comment, then a final valid request\n";
    requests << R"({"algorithm": "averaging", "R": 1, "id": 2})" << "\n";
  }

  // Default mode: errors are per-line results, the process exits 0.
  ASSERT_EQ(run_batch(binary, "", requests_path, out_path), 0);
  std::ifstream results(out_path);
  ASSERT_TRUE(results.good());
  std::uint64_t error_lines = 0;
  std::uint64_t ok_lines = 0;
  std::string line;
  std::string last_line;
  while (std::getline(results, line)) {
    if (line.rfind("{\"error\":", 0) == 0) {
      ++error_lines;
      // Every error line carries a stable dispatch code.
      EXPECT_NE(line.find("\"code\": \""), std::string::npos) << line;
    } else {
      ++ok_lines;
    }
    last_line = line;
  }
  EXPECT_GT(error_lines, 10u);  // the poison was actually served
  EXPECT_GE(ok_lines, 2u);      // both valid requests got answers
  // The final valid request survived everything before it.
  EXPECT_NE(last_line.find("\"id\": 2"), std::string::npos) << last_line;

  // --fail-fast flips the contract: first poison line is fatal.
  EXPECT_NE(run_batch(binary, "--fail-fast", requests_path, out_path), 0);

  // A bad pool flag is a set-up error: exit 1 naming the flag, not an
  // abort on a huge pool allocation.
  const std::string stderr_path = "wire_fuzz_stderr.txt";
  EXPECT_EQ(run_batch(binary, "--threads -1", requests_path, out_path,
                      stderr_path),
            1);
  std::ifstream stderr_file(stderr_path);
  const std::string diagnostics((std::istreambuf_iterator<char>(stderr_file)),
                                std::istreambuf_iterator<char>());
  EXPECT_NE(diagnostics.find("--threads"), std::string::npos) << diagnostics;
  // So is an agent count below 1, checked before any generator runs.
  for (const char* agents : {"--agents 0", "--agents -5"}) {
    EXPECT_EQ(run_batch(binary, agents, requests_path, out_path, stderr_path),
              1);
    std::ifstream agents_stderr(stderr_path);
    const std::string message(
        (std::istreambuf_iterator<char>(agents_stderr)),
        std::istreambuf_iterator<char>());
    EXPECT_NE(message.find("--agents"), std::string::npos) << message;
  }

  std::remove(requests_path.c_str());
  std::remove(out_path.c_str());
  std::remove(stderr_path.c_str());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(file, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(WireFuzz, BatchEncodesDefinedInfinitiesAsNull) {
  // Two results hold a +inf by definition: ω of an instance whose last
  // party was removed, and the ratio_bound of collaboration-oblivious
  // averaging with some S_k empty. Both are served, the value as null
  // (--strict turns any error line into a nonzero exit).
  const char* binary = std::getenv("MMLP_BATCH_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "MMLP_BATCH_BIN not set (tools not built)";
  }
  const std::string instance_path = "wire_fuzz_inf_instance.txt";
  const std::string requests_path = "wire_fuzz_inf_requests.jsonl";
  const std::string out_path = "wire_fuzz_inf_results.jsonl";
  {
    std::ofstream instance(instance_path);
    instance << "mmlp 3 1 1\na 0 0 1\na 0 1 1\na 0 2 1\nc 0 2 1\n";
    std::ofstream requests(requests_path);
    requests << R"({"op": "update", "id": 1, "remove_agents": [2]})" << "\n";
    requests << R"({"algorithm": "safe", "id": 2})" << "\n";
    requests << R"({"algorithm": "averaging", "R": 1, "id": 3})" << "\n";
  }
  ASSERT_EQ(run_batch(binary, "--strict --input " + instance_path,
                      requests_path, out_path),
            0);
  std::vector<std::string> lines = read_lines(out_path);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t r = 1; r < 3; ++r) {
    EXPECT_NE(lines[r].find("\"status\": \"ok\", \"omega\": null, "),
              std::string::npos)
        << lines[r];
  }

  {
    std::ofstream requests(requests_path);
    requests << R"({"algorithm": "averaging", "R": 1, )"
             << R"("collaboration_oblivious": true, "id": 1})" << "\n";
  }
  ASSERT_EQ(run_batch(binary, "--strict --generate random --agents 2000",
                      requests_path, out_path),
            0);
  lines = read_lines(out_path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"ratio_bound\": null"), std::string::npos)
      << lines[0];

  std::remove(instance_path.c_str());
  std::remove(requests_path.c_str());
  std::remove(out_path.c_str());
}

TEST(WireFuzz, BatchFaultPlanReachesOnlyFaultableEntries) {
  // --fault-plan is replayed by the requests whose registry entry is
  // faultable (selfstab-*); every other entry would reject a plan, so
  // it must never be handed one.
  const char* binary = std::getenv("MMLP_BATCH_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "MMLP_BATCH_BIN not set (tools not built)";
  }
  const std::string requests_path = "wire_fuzz_fault_requests.jsonl";
  const std::string out_path = "wire_fuzz_fault_results.jsonl";
  {
    std::ofstream requests(requests_path);
    ASSERT_TRUE(requests.good());
    requests << R"({"algorithm": "selfstab-safe", "id": 1})" << "\n";
    requests << R"({"algorithm": "safe", "id": 2})" << "\n";
  }
  ASSERT_EQ(run_batch(binary, "--fault-plan 's3;0:drop:1:0'", requests_path,
                      out_path),
            0);
  const std::vector<std::string> lines = read_lines(out_path);
  ASSERT_EQ(lines.size(), 2u);
  const std::string key = "\"faults_injected\": ";
  const std::size_t at = lines[0].find(key);
  ASSERT_NE(at, std::string::npos) << lines[0];
  EXPECT_GE(std::strtod(lines[0].c_str() + at + key.size(), nullptr), 1.0)
      << lines[0];
  EXPECT_NE(lines[1].find("\"id\": 2"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"status\": \"ok\""), std::string::npos)
      << lines[1];

  std::remove(requests_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace mmlp
