#pragma once
/// \file similarity.hpp
/// Lees-Dorodnitsyn local-similarity station solve with equilibrium
/// properties: the one kernel behind the stagnation-line convective flux
/// (beta = 0.5, d_kin = 0, H = h_e) and every station of the E+BL march.
/// Unknowns [f, f', f'', g, G], G = (C/Pr) g', with properties read at the
/// static enthalpy h = H (g - d_kin f'^2); RK4 shooting on (f''(0), G(0))
/// with a damped finite-difference Newton meets f'(eta_max) = g = 1.
/// Known-unconverged: from the classical seeds the first shoot often puts
/// f'(eta_max) on its +5 anti-overflow guard, which zeroes a Jacobian row;
/// the Newton then stops on its current iterate (often the seed) and
/// reports `converged == false`.

#include <vector>

#include "gas/equilibrium.hpp"
#include "numerics/interp.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

/// Equilibrium properties across a boundary layer at one pressure,
/// tabulated against static enthalpy on [h_lo, h_hi].
struct LayerTable {
  double h_lo = 0.0, h_hi = 0.0;  ///< table span [J/kg]
  numerics::Pchip c;              ///< C = rho mu / (rho_e mu_e)
  numerics::Pchip c_over_pr;      ///< C / Pr
  numerics::Pchip rho;            ///< density [kg/m^3]
  numerics::Pchip t;              ///< temperature [K]
  std::vector<std::vector<double>> x;  ///< mole fractions per node [k][s]
};

/// Sweep \p n_nodes equally spaced enthalpies over [h_lo, h_hi] at
/// pressure \p p, climbing from \p wall (each solve_ph seeds the next).
LayerTable tabulate_layer(const gas::EquilibriumSolver& eq,
                          const transport::MixtureTransport& trans,
                          const gas::EquilibriumResult& wall, double p,
                          double h_lo, double h_hi, std::size_t n_nodes,
                          double rho_e_mu_e);

/// One similarity station.
struct SimilarityStation {
  double beta;      ///< pressure-gradient parameter (0.5: stagnation point)
  double h_total;   ///< H, the enthalpy g is normalized by [J/kg]
  double d_kin;     ///< u_e^2 / 2H (0 at the stagnation point)
  double g_w;       ///< wall enthalpy ratio h_w / H
  double rho_edge;  ///< edge density [kg/m^3]
  double eta_max;   ///< outer edge of the similarity layer
  std::size_t n_eta;  ///< grid points, wall and eta_max included
};

struct SimilarityResult {
  double fpp0;     ///< f''(0)
  double bigG0;    ///< G(0) = (C/Pr) g'(0)
  bool converged;  ///< both edge residuals met the Newton tolerance
};

/// Solve one station from the caller's seed (\p fpp0, \p bigG0). A given
/// \p h_profile receives the returned shoot's static enthalpy (clamped to
/// the table) at eta_k = k eta_max / (n_eta - 1), k = 0..n_eta-1.
SimilarityResult solve_similarity(const LayerTable& table,
                                  const SimilarityStation& station,
                                  double fpp0, double bigG0,
                                  std::vector<double>* h_profile = nullptr);

}  // namespace cat::solvers
