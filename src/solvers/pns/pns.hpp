#pragma once
/// \file pns.hpp
/// Parabolized Navier-Stokes space-marching solver for windward-plane
/// heating (the paper's Fig. 6: Shuttle Orbiter windward centerline,
/// STS-3 condition, equilibrium air vs "ideal gas gamma = 1.2").
///
/// Formulation: the windward symmetry plane at angle of attack is treated
/// with the axisymmetric analog (equivalent hyperboloid body — the
/// era-standard treatment used by Refs. 16-21). Edge conditions come from
/// march_edges (vsl.hpp), the closure VSL and E+BL share: modified-
/// Newtonian pressure and an isentropic expansion of the stagnation state.
/// The marching core is the shared parabolic solver of vsl.hpp; the PNS
/// character comes from (a) the full thin-layer marching of the
/// nonsimilar profile equations and (b) the Vigneron splitting, which
/// admits only the well-posed fraction omega = g M^2/(1+(g-1)M^2) of the
/// streamwise pressure gradient where the edge flow is subsonic, with M
/// and g from the sound speed of the edge isentrope.

#include "geometry/body.hpp"
#include "solvers/vsl/vsl.hpp"

namespace cat::solvers {

/// Windward-ray PNS solution at one station, in Fig. 6's coordinates.
struct PnsStation {
  double x_over_l;  ///< axial station normalized by body length
  double q_w;       ///< wall heat flux [W/m^2]
  double p_e;       ///< surface pressure [Pa]
  double ue;        ///< edge velocity [m/s]
};

/// PNS front end over an Orbiter-like windward plane. The provider picks
/// the gas: make_equilibrium_props for Fig. 6's "EQUILIBRIUM AIR" curve,
/// make_ideal_props(1.2, ...) for its "IDEAL GAS (gamma = 1.2)" curve.
class PnsSolver {
 public:
  explicit PnsSolver(PropertyProvider props, MarchOptions opt = {});

  /// March over the equivalent body for freestream \p fs at angle of
  /// attack \p alpha_rad; returns stations over x/L in (0, 1], clustered
  /// toward the nose (x/L = (k/n)^2).
  std::vector<PnsStation> solve(const geometry::OrbiterGeometry& orbiter,
                                const MarchFreestream& fs, double alpha_rad,
                                std::size_t n_stations) const;

 private:
  PropertyProvider props_;
  MarchOptions opt_;
};

}  // namespace cat::solvers
