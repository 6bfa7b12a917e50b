#include "mmlp/graph/growth.hpp"

#include <algorithm>
#include <span>

#include "mmlp/graph/bfs.hpp"
#include "mmlp/util/check.hpp"

namespace mmlp {

namespace {
/// |B(v, r)| for r = 0..max_radius into `sizes`, from the collected ball
/// B(v, max_radius) and the collector's distances.
void write_ball_sizes(const std::vector<NodeId>& ball,
                      const BallCollector& collector,
                      std::span<std::size_t> sizes) {
  std::fill(sizes.begin(), sizes.end(), 0);
  for (const NodeId u : ball) {
    ++sizes[static_cast<std::size_t>(collector.last_distance(u))];
  }
  // Prefix-sum sphere sizes into ball sizes.
  for (std::size_t r = 1; r < sizes.size(); ++r) {
    sizes[r] += sizes[r - 1];
  }
}
}  // namespace

std::vector<std::size_t> ball_size_profile(const Hypergraph& h, NodeId v,
                                           std::int32_t max_radius) {
  MMLP_CHECK_GE(max_radius, 0);
  BallCollector collector(h);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(max_radius) + 1);
  write_ball_sizes(collector.collect(v, max_radius), collector, sizes);
  return sizes;
}

std::vector<double> growth_profile(const Hypergraph& h, std::int32_t max_radius) {
  MMLP_CHECK_GE(max_radius, 0);
  const auto n = static_cast<std::size_t>(h.num_nodes());
  MMLP_CHECK_GT(n, 0u);
  // Per-node profiles |B(v, 0..max_radius+1)| computed in parallel into
  // one flat array; the max-reduction is serial.
  const std::size_t width = static_cast<std::size_t>(max_radius) + 2;
  std::vector<std::size_t> sizes(n * width);
  for_each_ball(h, max_radius + 1, every_node(h),
                [&](NodeId v, const std::vector<NodeId>& ball,
                    const BallCollector& collector) {
                  write_ball_sizes(
                      ball, collector,
                      std::span(sizes).subspan(
                          static_cast<std::size_t>(v) * width, width));
                });
  std::vector<double> gamma(static_cast<std::size_t>(max_radius) + 1, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t* profile = sizes.data() + v * width;
    for (std::size_t r = 0; r + 1 < width; ++r) {
      const double ratio = static_cast<double>(profile[r + 1]) /
                           static_cast<double>(profile[r]);
      gamma[r] = std::max(gamma[r], ratio);
    }
  }
  return gamma;
}

double growth_gamma(const Hypergraph& h, std::int32_t r) {
  MMLP_CHECK_GE(r, 0);
  return growth_profile(h, r)[static_cast<std::size_t>(r)];
}

double theorem3_bound(const Hypergraph& h, std::int32_t R) {
  MMLP_CHECK_GE(R, 1);
  const auto profile = growth_profile(h, R);
  return profile[static_cast<std::size_t>(R) - 1] *
         profile[static_cast<std::size_t>(R)];
}

}  // namespace mmlp
