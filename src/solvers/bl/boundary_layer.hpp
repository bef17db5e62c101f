#pragma once
/// \file boundary_layer.hpp
/// Compressible laminar boundary layer with equilibrium chemistry for the
/// Euler + boundary-layer (E+BL) solution method (paper: Rakich et al. /
/// Hamilton et al., Fig. 4).
///
/// The inviscid solution supplies the wall pressure distribution; edge
/// states follow from an isentropic expansion of the stagnation state to
/// the local pressure (normal-shock entropy — the classical blunt-body
/// edge closure; entropy-layer swallowing is neglected and noted in
/// DESIGN.md). Heating comes from the Lees-Dorodnitsyn local-similarity
/// solution at each station: the shared station kernel (solvers/similarity)
/// that the stagnation solver also calls, warm-started station to station.
/// Known-unconverged: some stations' shoots stop on the iterate they hold
/// (e.g. the seed); BlResult reports that as `converged == false`.

#include <vector>

#include "gas/equilibrium.hpp"

namespace cat::solvers {

/// One surface station of the inviscid (Euler) solution.
struct BlStation {
  double s;    ///< arc length from the stagnation point [m]
  double r;    ///< body radius (axisymmetric metric) [m]
  double p_e;  ///< wall/edge pressure [Pa]
};

/// Boundary-layer solution along the body.
struct BlResult {
  std::vector<double> s;       ///< station arc length [m]
  std::vector<double> q_w;     ///< wall heat flux [W/m^2]
  std::vector<double> ue;      ///< edge velocity [m/s]
  std::vector<double> te;      ///< edge temperature [K]
  std::vector<double> rho_e;   ///< edge density [kg/m^3]
  std::vector<double> theta;   ///< momentum-thickness-like scale sqrt(2xi)/(rho_e ue r) [m]
  bool converged = false;      ///< every station's shoot met its tolerance
};

/// Options for the boundary-layer solver.
struct BlOptions {
  double wall_temperature_K = 1200.0;
  std::size_t n_eta = 160;
  double eta_max = 8.0;  ///< similarity coordinate  // cat-lint: dimensionless
  std::size_t n_table = 40;
  /// Order of the streamwise backward difference feeding the pressure-
  /// gradient parameter beta = (2 xi / ue) due/dxi — the solver's only
  /// dxi-dependent input (the stations themselves are local-similarity
  /// solves). 2 = variable-step three-point stencil with a one-point
  /// startup station, 1 = the legacy backward-Euler difference that kept
  /// q_w(s) first-order accurate in dxi.
  std::size_t streamwise_order = 2;
};

/// Equilibrium-gas local-similarity boundary-layer solver.
class BoundaryLayerSolver {
 public:
  explicit BoundaryLayerSolver(const gas::EquilibriumSolver& eq,
                               BlOptions opt = {});

  /// March over \p stations (ordered by s, station 0 at/near the
  /// stagnation point). \p stag is the equilibrium stagnation state (from
  /// StagnationLineSolver::shock_layer_edge or an Euler solution) and
  /// \p h_total the freestream total enthalpy.
  BlResult solve(const std::vector<BlStation>& stations,
                 const gas::EquilibriumResult& stag, double h_total) const;

 private:
  const gas::EquilibriumSolver& eq_;
  BlOptions opt_;
};

}  // namespace cat::solvers
