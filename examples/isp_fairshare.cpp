// Section 2 application: ISP fair-share bandwidth. Each customer routes
// over its last-mile links through shared access routers; the operator
// maximises the worst customer's throughput.
#include <cstdio>
#include <exception>

#include "mmlp/core/solution.hpp"
#include "mmlp/engine/session.hpp"
#include "mmlp/engine/solver.hpp"
#include "mmlp/gen/isp.hpp"
#include "mmlp/util/cli.hpp"
#include "mmlp/util/table.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mmlp;
  ArgParser args("ISP fair-share allocation (paper §2).");
  args.add_flag("customers", "number of major customers", "12");
  args.add_flag("routers", "number of access routers", "6");
  args.add_flag("seed", "topology seed", "1");
  if (!args.parse(argc, argv)) {
    return 1;
  }

  IspOptions options;
  options.num_customers = static_cast<std::int32_t>(args.get_int("customers"));
  options.num_routers = static_cast<std::int32_t>(args.get_int("routers"));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto net = make_isp_network(options);

  std::printf("topology: %d customers, %d last-mile links, %d routers, "
              "%d (link,router) paths\n\n",
              options.num_customers, net.num_links, options.num_routers,
              net.instance.num_agents());

  // One session serves all three solver tiers.
  engine::Session session(net.instance);
  const auto safe = engine::solve(session, {.algorithm = "safe"});
  const auto averaging =
      engine::solve(session, {.algorithm = "averaging", .R = 1});
  const auto exact = engine::solve(session, {.algorithm = "optimal"});

  TableWriter table({"algorithm", "fair share", "vs optimal"}, 4);
  table.add_row({std::string("safe (local)"), safe.omega,
                 safe.omega / exact.omega});
  table.add_row({std::string("averaging R=1 (local)"), averaging.omega,
                 averaging.omega / exact.omega});
  table.add_row({std::string("optimal (centralised)"), exact.omega, 1.0});
  table.print("Worst-served customer's throughput");

  // Per-customer breakdown under the optimum (SolveResult carries the
  // per-party benefits already).
  TableWriter detail({"customer", "throughput"}, 4);
  for (PartyId k = 0; k < net.instance.num_parties(); ++k) {
    detail.add_row({static_cast<std::int64_t>(k),
                    exact.party_benefit[static_cast<std::size_t>(k)]});
  }
  std::printf("\n");
  detail.print("Per-customer throughput at the optimum (max-min fair floor)");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value (CheckError from ArgParser or a generator) or any
  // other failure ends in one line on stderr and exit status 1.
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "example_isp_fairshare: %s\n", error.what());
    return 1;
  }
}
