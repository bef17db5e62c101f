#include "solvers/stagnation/stagnation.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/heating.hpp"
#include "gas/constants.hpp"
#include "radiation/tangent_slab.hpp"
#include "solvers/similarity/similarity.hpp"
#include "solvers/vsl/vsl.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

StagnationLineSolver::StagnationLineSolver(const gas::EquilibriumSolver& eq,
                                           StagnationOptions opt)
    : eq_(eq), opt_(opt), rad_(eq.mixture().set()) {
  CAT_REQUIRE(opt_.n_eta >= 40 && opt_.eta_max > 3.0, "bad similarity grid");
}

ShockLayerEdge StagnationLineSolver::shock_layer_edge(
    const StagnationConditions& c) const {
  CAT_REQUIRE(c.velocity > 0.0 && c.rho_inf > 0.0 && c.p_inf > 0.0,
              "bad freestream");
  // Freestream enthalpy from the cold equilibrium state at (T_inf, p_inf).
  const auto fs = eq_.solve_tp(std::max(c.t_inf, 160.0), c.p_inf);
  const double h1 = fs.h;
  const double v = c.velocity;

  // Equilibrium Rankine-Hugoniot: the shared Rayleigh-pitot density-ratio
  // fixed point (solvers/vsl), which throws on a stalled iteration instead
  // of exiting silently; the post-shock state is then re-evaluated once at
  // the converged ratio. This solver keeps its own stagnation-pressure
  // closure (p2 + recovered post-shock kinetic head) below. Each
  // post-shock inversion is seeded by the previous iterate's state.
  gas::EquilibriumResult post;
  const PitotSolution pitot = solve_rayleigh_pitot(
      [&](double p2, double h2) {
        post = eq_.solve_ph(p2, h2, &post);
        return post.rho;
      },
      {v, c.rho_inf, c.p_inf, c.t_inf}, h1, /*eps0=*/0.1,
      /*max_iters=*/120);
  const double eps = pitot.eps;
  post = eq_.solve_ph(c.p_inf + c.rho_inf * v * v * (1.0 - eps),
                      h1 + 0.5 * v * v * (1.0 - eps * eps), &post);

  ShockLayerEdge e;
  e.rho2 = post.rho;
  e.p2 = post.p;
  e.t2 = post.t;
  e.h2 = post.h;
  e.u2 = v * eps;
  e.density_ratio = eps;
  // Stagnation edge: recover the small post-shock kinetic head.
  e.p_stag = e.p2 + 0.5 * e.rho2 * e.u2 * e.u2;
  e.h_stag = h1 + 0.5 * v * v;
  e.stag_state = eq_.solve_ph(e.p_stag, e.h_stag, &post);
  e.t_stag = e.stag_state.t;
  e.rho_stag = e.stag_state.rho;
  // Shock standoff: classic blunt-body correlation delta = 0.78 eps R.
  e.standoff = 0.78 * eps * c.nose_radius;
  return e;
}

StagnationSolution StagnationLineSolver::solve(
    const StagnationConditions& c) const {
  const ShockLayerEdge edge = shock_layer_edge(c);
  const gas::EquilibriumResult& stag = edge.stag_state;
  // Wall state at T_w: cold equilibrium composition at the wall.
  const auto wall_state = eq_.solve_tp(c.wall_temperature_K, edge.p_stag);
  // The similarity formulation normalizes by the edge total enthalpy; it
  // requires genuinely hypersonic conditions (h_e well above the wall
  // enthalpy). Below that the boundary-layer problem is not the one this
  // solver models.
  if (edge.h_stag < 2.0e5 || edge.h_stag < 2.0 * std::fabs(wall_state.h)) {
    throw SolverError(
        "StagnationLineSolver: edge enthalpy too low (non-hypersonic)");
  }
  const std::size_t ns = eq_.mixture().n_species();
  transport::MixtureTransport trans(eq_.mixture());

  // ---- property table, g = h/h_e in [0.8 g_w, 1.05], at p = p_stag -----
  const double h_e = edge.h_stag;
  const double g_w = wall_state.h / h_e;
  const double h_lo = std::min(g_w * 0.8, g_w - 1e-4) * h_e;
  const double rho_e_mu_e = stag.rho * trans.viscosity(stag.y, stag.t);
  const LayerTable tab =
      tabulate_layer(eq_, trans, wall_state, edge.p_stag, h_lo, 1.05 * h_e,
                     opt_.n_table, rho_e_mu_e);

  // ---- similarity station (beta = 0.5, no kinetic-energy term), seeded
  // by constant-property values scaled by the wall-edge contrast --------
  std::vector<double> h_prof;
  const SimilarityResult sim = solve_similarity(
      tab, {0.5, h_e, 0.0, g_w, tab.rho(h_e), opt_.eta_max, opt_.n_eta},
      0.7, 0.7 * (1.0 - g_w), &h_prof);

  // ---- dimensional reconstruction -------------------------------------
  const double du_dx = core::newtonian_velocity_gradient(
      c.nose_radius, edge.p_stag, c.p_inf, edge.rho_stag);
  // q_w = (rho mu)_w / Pr_w * sqrt(2 du_dx / (rho_e mu_e)) * h_e * g'(0)
  //     = G(0) * sqrt(2 du_dx rho_e mu_e) * h_e   (G = C/Pr g').
  const double q_conv =
      sim.bigG0 * std::sqrt(2.0 * du_dx * rho_e_mu_e) * h_e;

  StagnationSolution out;
  out.edge = edge;
  out.du_dx = du_dx;
  out.q_conv = q_conv;
  out.q_rad = 0.0;
  out.converged = sim.converged;
  out.n_species = ns;

  // Physical wall-normal coordinate: dy/deta = 1/(rho sqrt(2 du_dx/(rho_e
  // mu_e))) (axisymmetric Lees-Dorodnitsyn inverse transform at x -> 0).
  const double scale = std::sqrt(rho_e_mu_e / (2.0 * du_dx));
  const std::size_t n_eta = opt_.n_eta, nt = tab.x.size();
  const double d_eta = opt_.eta_max / static_cast<double>(n_eta - 1);
  out.y_phys.resize(n_eta);
  out.temperature.resize(n_eta);
  out.species_x.assign(ns, std::vector<double>(n_eta));
  double y_acc = 0.0;
  for (std::size_t k = 0; k < n_eta; ++k) {
    const double h = h_prof[k];
    const double rho = std::max(tab.rho(h), 1e-10);
    if (k > 0) y_acc += scale / rho * d_eta;
    out.y_phys[k] = y_acc;
    out.temperature[k] = tab.t(h);
    // Composition: interpolate mole fractions in h (linear between table
    // nodes keeps them in [0,1]).
    const double pos = (h - tab.h_lo) / (tab.h_hi - tab.h_lo) *
                       static_cast<double>(nt - 1);
    const std::size_t k0 = std::min(static_cast<std::size_t>(pos), nt - 2);
    const double w = std::clamp(pos - static_cast<double>(k0), 0.0, 1.0);
    for (std::size_t s = 0; s < ns; ++s)
      out.species_x[s][k] =
          (1.0 - w) * tab.x[k0][s] + w * tab.x[k0 + 1][s];
  }

  // Extend to the shock with the uniform inviscid equilibrium layer.
  const double y_bl = out.y_phys.back();
  if (edge.standoff > y_bl) {
    const std::size_t n_ext = 12;
    for (std::size_t k = 1; k <= n_ext; ++k) {
      const double y = y_bl + (edge.standoff - y_bl) *
                                  static_cast<double>(k) /
                                  static_cast<double>(n_ext);
      out.y_phys.push_back(y);
      out.temperature.push_back(stag.t);
      for (std::size_t s = 0; s < ns; ++s)
        out.species_x[s].push_back(stag.x[s]);
    }
  }

  // ---- tangent-slab radiative flux -------------------------------------
  if (opt_.include_radiation) {
    radiation::SpectralGrid grid(opt_.lambda_min_m, opt_.lambda_max_m,
                                 opt_.n_spectral);
    std::vector<radiation::SlabLayer> layers;
    const std::size_t np = out.y_phys.size();
    const std::size_t stride = std::max<std::size_t>(1, np / opt_.n_slab);
    std::vector<double> nd(ns);
    for (std::size_t k = 1; k < np; k += stride) {
      const std::size_t k0 = k - 1;
      const double dz = out.y_phys[std::min(k + stride - 1, np - 1)] -
                        out.y_phys[k0];
      if (dz <= 0.0) continue;
      const double t_loc = out.temperature[k0];
      // Number densities from mole fractions at (p_stag, T_loc).
      const double n_total =
          edge.p_stag / (gas::constants::kBoltzmann * t_loc);
      for (std::size_t s = 0; s < ns; ++s)
        nd[s] = out.species_x[s][k0] * n_total;
      radiation::SlabLayer layer;
      layer.thickness = dz;
      layer.j.resize(grid.size());
      layer.kappa.resize(grid.size());
      rad_.emission(nd, t_loc, t_loc, grid, layer.j);
      rad_.absorption(layer.j, t_loc, grid, layer.kappa);
      layers.push_back(std::move(layer));
    }
    if (!layers.empty()) {
      const auto slab = radiation::solve_tangent_slab(grid, layers);
      out.q_rad = slab.q_wall;
    }
  }
  return out;
}

}  // namespace cat::solvers
