#include "solvers/bl/boundary_layer.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "solvers/similarity/similarity.hpp"
#include "solvers/vsl/vsl.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

BoundaryLayerSolver::BoundaryLayerSolver(const gas::EquilibriumSolver& eq,
                                         BlOptions opt)
    : eq_(eq), opt_(opt) {
  CAT_REQUIRE(opt_.n_eta >= 40, "similarity grid too small");
  CAT_REQUIRE(opt_.streamwise_order == 1 || opt_.streamwise_order == 2,
              "streamwise_order must be 1 (BDF1) or 2 (BDF2)");
}

BlResult BoundaryLayerSolver::solve(const std::vector<BlStation>& stations,
                                    const gas::EquilibriumResult& stag,
                                    double h_total) const {
  CAT_REQUIRE(stations.size() >= 2, "need at least two stations");
  CAT_REQUIRE(stations.front().s > 0.0, "first station must have s > 0");
  transport::MixtureTransport trans(eq_.mixture());

  const std::size_t n = stations.size();
  BlResult out;
  out.s.resize(n);
  out.q_w.resize(n);
  out.ue.resize(n);
  out.te.resize(n);
  out.rho_e.resize(n);
  out.theta.resize(n);
  out.converged = true;

  // ---- edge states by isentropic expansion of the stagnation state ----
  std::vector<double> ue(n), he(n), rho_e(n), mu_e(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto edge = eq_.expand_isentropic(stag, stations[i].p_e);
    he[i] = edge.h;
    rho_e[i] = edge.rho;
    mu_e[i] = trans.viscosity(edge.y, edge.t);
    ue[i] = std::sqrt(std::max(2.0 * (h_total - edge.h), 1.0));
    out.te[i] = edge.t;
    out.rho_e[i] = edge.rho;
    out.ue[i] = ue[i];
    out.s[i] = stations[i].s;
  }

  // ---- streamwise similarity coordinate xi -----------------------------
  std::vector<double> xi(n);
  {
    // Near the stagnation point ue ~ beta s and r ~ s, so the integrand
    // ~ s^3 and xi(s0) = integrand(s0) * s0 / 4.
    const double integ0 = rho_e[0] * mu_e[0] * ue[0] * stations[0].r *
                          stations[0].r;
    xi[0] = 0.25 * integ0 * stations[0].s;
    for (std::size_t i = 1; i < n; ++i) {
      const double fi = rho_e[i] * mu_e[i] * ue[i] * stations[i].r *
                        stations[i].r;
      const double fim = rho_e[i - 1] * mu_e[i - 1] * ue[i - 1] *
                         stations[i - 1].r * stations[i - 1].r;
      xi[i] = xi[i - 1] +
              0.5 * (fi + fim) * (stations[i].s - stations[i - 1].s);
    }
  }

  // ---- march stations with local-similarity solves ---------------------
  SimilarityResult seed{0.7, 0.5, false};
  for (std::size_t i = 0; i < n; ++i) {
    // Pressure-gradient parameter beta = (2 xi / ue) (due/dxi). The
    // backward difference for due/dxi is the solver's only streamwise
    // discretization: one-point at the startup station, variable-step
    // three-point from station 2 on (design order 2 in dxi; gated by the
    // verify ebl_dxi_ladder study).
    double beta;
    if (i == 0) {
      beta = 0.5;  // axisymmetric stagnation value
    } else {
      const bool bdf2 = i >= 2 && opt_.streamwise_order == 2;
      const StreamwiseCoeffs cs = streamwise_coeffs(
          xi[i] - xi[i - 1], bdf2 ? xi[i - 1] - xi[i - 2] : 0.0, bdf2);
      const double due_dxi = cs.c0 * ue[i] + cs.c1 * ue[i - 1] +
                             (bdf2 ? cs.c2 * ue[i - 2] : 0.0);
      beta = std::clamp(2.0 * xi[i] / ue[i] * due_dxi, -0.15, 1.0);
    }

    // Property table vs static enthalpy at this station's pressure.
    const double p_loc = stations[i].p_e;
    const auto wall = eq_.solve_tp(opt_.wall_temperature_K, p_loc);
    const double reme = rho_e[i] * mu_e[i];
    const LayerTable tab = tabulate_layer(
        eq_, trans, wall, p_loc,
        std::min(wall.h, he[i]) - 0.02 * std::fabs(h_total), h_total * 1.02,
        opt_.n_table, reme);
    // Warm-started from the previous station.
    seed = solve_similarity(tab,
                            {beta, h_total, 0.5 * ue[i] * ue[i] / h_total,
                             wall.h / h_total, tab.rho(he[i]), opt_.eta_max,
                             opt_.n_eta},
                            seed.fpp0, seed.bigG0);
    out.converged = out.converged && seed.converged;

    // Wall flux: q = G(0) * He * (ue r / sqrt(2 xi)) * (rho_e mu_e)
    // — from q = (rho mu)_w/Pr_w He g'(0) (ue r/sqrt(2 xi)) with
    // G = C/Pr g' and C normalized by rho_e mu_e.
    const double metric =
        ue[i] * stations[i].r / std::sqrt(2.0 * std::max(xi[i], 1e-30));
    out.q_w[i] = seed.bigG0 * h_total * metric * reme;
    out.theta[i] =
        std::sqrt(2.0 * xi[i]) / (rho_e[i] * ue[i] * stations[i].r);
  }
  return out;
}

}  // namespace cat::solvers
