#include "solvers/pns/pns.hpp"

#include "core/error.hpp"

namespace cat::solvers {

PnsSolver::PnsSolver(PropertyProvider props, MarchOptions opt)
    : props_(std::move(props)), opt_(std::move(opt)) {}

std::vector<PnsStation> PnsSolver::solve(
    const geometry::OrbiterGeometry& orbiter, const MarchFreestream& fs,
    double alpha_rad, std::size_t n) const {
  CAT_REQUIRE(n >= 4, "need at least four stations");
  const geometry::Hyperboloid body = orbiter.equivalent_hyperboloid(alpha_rad);

  // Stations at x/L = (k/n)^2, k = 1..n: clustered toward the nose.
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double frac =
        static_cast<double>(i + 1) / static_cast<double>(n);
    s[i] = body.s_of_x(orbiter.length * frac * frac);
  }
  const MarchEdges edges = march_edges(props_, body, fs, s, true);
  const auto stations =
      ParabolicMarcher(props_, opt_).march(edges.stations, edges.h_total);

  std::vector<PnsStation> out;
  out.reserve(stations.size());
  for (const MarchStationResult& st : stations)
    out.push_back({body.at(st.s).x / orbiter.length, st.q_w, st.p_e, st.ue});
  return out;
}

}  // namespace cat::solvers
