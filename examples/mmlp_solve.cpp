// Command-line solver: read a max-min LP from a file (or generate one),
// run the chosen algorithm(s), report ω and per-entity diagnostics.
//
//   mmlp_solve --input instance.mmlp --algorithm all
//   mmlp_solve --generate grid --side 8 --algorithm averaging --radius 2
//   mmlp_solve --generate sensor --seed 3 --output /tmp/net.mmlp
//
// Algorithms are resolved through the engine::SolverRegistry — any
// registered name works (--algorithm distributed-averaging, sublinear,
// ...), "all" runs the standard comparison set, and every solve shares
// one warm engine::Session so repeated algorithms reuse the cached
// graph/ball structures.
//
// The instance format is the plain-text round-trip format of
// Instance::serialize(): a header line `mmlp <agents> <resources>
// <parties>`, then `a <i> <v> <value>` and `c <k> <v> <value>` records.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "mmlp/api.hpp"

namespace {

mmlp::Instance load_or_generate(const mmlp::ArgParser& args) {
  using namespace mmlp;
  const std::string input = args.get_string("input");
  if (!input.empty()) {
    std::ifstream in(input);
    MMLP_CHECK_MSG(static_cast<bool>(in), "cannot open " << input);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return Instance::deserialize(buffer.str());
  }
  const std::string kind = args.get_string("generate");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto side = static_cast<std::int32_t>(args.get_int("side"));
  if (kind == "grid") {
    return make_grid_instance(
        {.dims = {side, side}, .torus = true, .randomize = true, .seed = seed});
  }
  if (kind == "sensor") {
    SensorNetworkOptions options;
    options.seed = seed;
    return make_sensor_network(options).instance;
  }
  if (kind == "isp") {
    IspOptions options;
    options.seed = seed;
    return make_isp_network(options).instance;
  }
  if (kind == "random") {
    return make_random_instance({.num_agents = side * side, .seed = seed});
  }
  MMLP_CHECK_MSG(false, "unknown generator '" << kind
                        << "' (grid|sensor|isp|random)");
}

int run(int argc, char** argv) {
  using namespace mmlp;
  ArgParser args("Solve a max-min LP with local and centralised algorithms.");
  args.add_flag("input", "instance file (mmlp text format); empty = generate",
                "");
  args.add_flag("generate", "generator when no input: grid|sensor|isp|random",
                "grid");
  args.add_flag("side", "generator size parameter", "8");
  args.add_flag("seed", "generator seed", "1");
  args.add_flag("algorithm", "a registry name (safe|averaging|greedy|...) or 'all'",
                "all");
  args.add_flag("radius", "averaging view radius R", "1");
  args.add_flag("output", "write the instance to this file and exit", "");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  const Instance instance = load_or_generate(args);
  const std::string output = args.get_string("output");
  if (!output.empty()) {
    std::ofstream out(output);
    MMLP_CHECK_MSG(static_cast<bool>(out), "cannot write " << output);
    out << instance.serialize();
    std::cout << "wrote " << instance.num_agents() << " agents, "
              << instance.num_nonzeros() << " nonzeros to " << output << '\n';
    return 0;
  }

  const auto bounds = instance.degree_bounds();
  std::cout << "instance: " << instance.num_agents() << " agents, "
            << instance.num_resources() << " resources, "
            << instance.num_parties() << " parties"
            << " (D_V^I=" << bounds.delta_V_of_I
            << ", D_V^K=" << bounds.delta_V_of_K << ")\n\n";

  // One warm session serves every requested algorithm; the registry
  // resolves names (an unknown one fails with the registered list).
  const std::string algorithm = args.get_string("algorithm");
  const auto radius = static_cast<std::int32_t>(args.get_int("radius"));
  const std::vector<std::string> selected =
      algorithm == "all"
          ? std::vector<std::string>{"safe", "averaging", "greedy", "optimal"}
          : std::vector<std::string>{algorithm};

  engine::Session session(instance);
  TableWriter table({"algorithm", "omega", "feasible", "ms"}, 6);
  for (const std::string& name : selected) {
    const engine::SolveResult result =
        engine::solve(session, {.algorithm = name, .R = radius});
    std::string label = result.algorithm;
    if (result.diagnostics.contains("R")) {
      label += " R=" + std::to_string(radius);
    }
    if (result.has_solution) {
      table.add_row({label, result.omega,
                     std::string(result.feasible ? "yes" : "NO"),
                     result.total_ms});
    } else {
      // Estimators carry their answer in the diagnostics.
      for (const auto& [key, value] : result.diagnostics) {
        std::cout << label << " " << key << " = " << value << '\n';
      }
    }
  }
  if (table.num_rows() > 0) {
    table.print("Results");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value (CheckError from ArgParser or a generator) or any
  // other failure ends in one line on stderr and exit status 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "example_mmlp_solve: %s\n", error.what());
    return 1;
  }
}
