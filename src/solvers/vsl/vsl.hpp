#pragma once
/// \file vsl.hpp
/// Viscous shock-layer (VSL) marching solver for axisymmetric windward
/// forebodies with equilibrium chemistry.
///
/// The VSL equations are the steady shock-layer equations retained to
/// second order in 1/sqrt(Re); they are hyperbolic-parabolic in the
/// streamwise direction and are solved by marching from the stagnation
/// region (paper: "VSL codes have been the major tools for providing
/// aerothermal flowfield environments for the windward forebody...").
/// Implementation: nonsimilar Lees-Dorodnitsyn marching — at each
/// streamwise station the normal-direction momentum and total-enthalpy
/// equations are solved implicitly (scalar tridiagonal sweeps with Picard
/// linearization), with backward-difference streamwise history terms.
/// Edge conditions come from march_edges: a modified-Newtonian surface
/// pressure and an isentropic expansion of the Rayleigh-pitot stagnation
/// state to it — the closure the E+BL solver uses — so the VSL, PNS and
/// E+BL tiers see the same edge for the same flight state.
///
/// The same edge closure and marching core drive the PNS solver
/// (solvers/pns), which adds the Vigneron streamwise-pressure-gradient
/// splitting.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "gas/equilibrium.hpp"
#include "geometry/body.hpp"

namespace cat::solvers {

/// Edge (outer boundary) state at one marching station.
struct MarchEdge {
  double s;       ///< arc length [m]
  double r;       ///< body radius [m]
  double p_e;     ///< edge pressure [Pa]
  double h_e;     ///< edge static enthalpy [J/kg]
  double ue;      ///< edge velocity [m/s]
  double rho_e;   ///< edge density [kg/m^3]
  double mu_e;    ///< edge viscosity [Pa s]
  double t_e;     ///< edge temperature [K]
  /// Vigneron fraction of the streamwise pressure gradient admitted by the
  /// marching scheme: 1 (full) for VSL. For PNS, march_edges sets
  /// omega = g M^2 / (1 + (g - 1) M^2), capped at 1, where the edge Mach
  /// number M and the isentropic exponent g = rho a^2 / p both come from
  /// the sound speed a^2 = dp/drho|_s of the edge isentrope, so subsonic
  /// edges keep the march well posed.
  double vigneron_omega = 1.0;
  /// Edge velocity gradient along the arc, due/ds [1/s]; the marcher
  /// evaluates beta = (2 xi/ue) due/dxi from it pointwise. A backward
  /// difference of ue in xi is no substitute: ue ~ xi^(1/4) near the
  /// stagnation point, and ue has a slope break wherever the body does
  /// (a sphere-cone tangency).
  double due_ds = 0.0;
};

/// Station output of the marching solver.
struct MarchStationResult {
  double s, q_w, cf, p_e, ue, t_e;
  double theta;  ///< boundary/viscous-layer thickness scale [m]
};

/// Options for the marching core.
struct MarchOptions {
  double wall_temperature_K = 1200.0;
  std::size_t n_eta = 120;
  double eta_max = 8.0;  ///< similarity coordinate  // cat-lint: dimensionless
  std::size_t n_table = 36;
  std::size_t picard_iters = 10;
  /// Order of the streamwise (dxi) history differences: 2 = variable-step
  /// three-point BDF2 with a one-point (BDF1) startup station, 1 = the
  /// legacy backward-Euler march. The verify ladders gate both settings
  /// (march_dxi_mms at p ~ 2, march_dxi_bdf1 at p ~ 1), so a regression
  /// to first order in dxi can no longer hide behind wall-normal orders.
  std::size_t streamwise_order = 2;
  /// Verification hooks (src/verify): manufactured forcing added to the
  /// momentum (F) and total-enthalpy (g) equations at interior eta nodes,
  /// as S(s, eta) on the same side as the diffusion term — the converged
  /// station then satisfies  (C F')' + ... + S_F = 0  discretely.
  std::function<double(double s, double eta)> momentum_source;
  std::function<double(double s, double eta)> energy_source;
  /// Called after each station converges with the station's profiles
  /// F = u/ue and g = H/He on the eta grid (observed-order studies read
  /// the discrete solution itself instead of derived wall scalars).
  std::function<void(std::size_t station, double s, std::span<const double> f,
                     std::span<const double> g)>
      profile_observer;
};

/// Thermophysical state at (p, h) as the marching core needs it.
struct PhState {
  double rho, t, mu, pr, h;
};

/// Property provider: (p, h) -> state. Adapters exist for the equilibrium
/// solver and for calorically perfect gas (the "ideal gas gamma = 1.2"
/// comparison model of Fig. 6).
using PropertyProvider = std::function<PhState(double p, double h)>;

/// Equilibrium-gas properties through the Gibbs solver + mixture transport.
PropertyProvider make_equilibrium_props(const gas::EquilibriumSolver& eq);

/// Calorically perfect gas with Sutherland viscosity and constant Prandtl.
PropertyProvider make_ideal_props(double gamma, double r_gas,
                                  double prandtl = 0.72);

/// Variable-step backward-difference coefficients for the streamwise
/// derivative at the current station:
///   d(phi)/dxi ~ c0 phi_i + c1 phi_{i-1} + c2 phi_{i-2},
/// with d1 = xi_i - xi_{i-1} and d2 = xi_{i-1} - xi_{i-2}. Three-point
/// BDF2 (design order 2 on arbitrary nonuniform spacing) when \p bdf2 is
/// set, one-point backward Euler (c2 = 0, \p d2 ignored) otherwise.
/// Shared by the ParabolicMarcher history terms and the BL solver's
/// due/dxi difference so the two marching front ends cannot drift apart.
struct StreamwiseCoeffs {
  double c0, c1, c2;
};
StreamwiseCoeffs streamwise_coeffs(double d1, double d2, bool bdf2);

/// Enthalpy at which \p props reports temperature \p t at pressure \p p
/// (the provider's T(h) at fixed p is monotone non-decreasing). The
/// bracket is validated and widened geometrically when \p t lies outside
/// it; throws SolverError when the provider cannot reach \p t at all
/// (the legacy hard-coded bracket silently clamped such targets to an
/// endpoint). Shared by the marching core's wall-enthalpy solve and the
/// march_edges freestream-enthalpy lookup.
double enthalpy_at_temperature(const PropertyProvider& props, double p,
                               double t);

/// Freestream description shared by the marching front ends.
struct MarchFreestream {
  double velocity, rho, p, t;
};

/// Density lookup rho(p, h) for the Rayleigh-pitot iteration below.
using DensityProvider = std::function<double(double p, double h)>;

/// Equilibrium Rayleigh-pitot stagnation state behind a normal shock:
/// fixed-point iteration on the density ratio eps = rho_inf/rho_2 with
/// the post-shock state evaluated through \p rho_of_ph. Shared by
/// march_edges and the stagnation-line solver (it used to be duplicated in
/// the VSL and PNS front ends, each exiting its iteration loop silently
/// when unconverged). Throws SolverError when the damped iteration has
/// not converged to \p tol after \p max_iters. The
/// default tolerance is loose enough (eps is O(0.1), so 1e-10 is ~1e-9
/// relative — far beyond the physics) that O(1e-11) interpolation
/// non-smoothness of table-backed rho(p, h) providers cannot limit-cycle
/// a physically-converged iteration into the throw.
struct PitotSolution {
  double eps;     ///< post-shock density ratio rho_inf/rho_2
  /// Stagnation-point pressure [Pa]: the post-shock static pressure plus
  /// the recovered post-shock kinetic head, p2 + rho2 u2^2 / 2 =
  /// p_inf + rho_inf V^2 (1 - eps/2) — the stagnation-line solver's closure.
  double p_stag;
};
PitotSolution solve_rayleigh_pitot(const DensityProvider& rho_of_ph,
                                   const MarchFreestream& fs, double h_inf,
                                   double eps0 = 1.0 / 6.0,
                                   int max_iters = 80, double tol = 1e-10);

/// Marching metric radius for a generator point (r, s) of a body with
/// nose radius \p rn, shared by the VSL/PNS/E+BL front ends. Any positive
/// geometry radius passes through untouched — the generator is
/// authoritative, including genuinely small radii on bodies closing
/// toward the axis, which the old absolute clamps (max(r, 1e-6)/1e-5/
/// 1e-4 m, one per front end) silently inflated along with xi and the
/// heating metric. A degenerate generator (r <= 0) gets the analytic
/// stagnation limit r -> s near the nose (s < rn; exact to O(s^3/Rn^2)
/// for any smooth blunt nose) and throws SolverError aft of it, where no
/// analytic limit exists and any substitute — tiny or nose-scale — would
/// silently distort xi and q_w.
double metric_radius(double r, double s, double rn);

/// Edge states of a VSL/PNS march and the freestream total enthalpy the
/// marching core normalizes by.
struct MarchEdges {
  std::vector<MarchEdge> stations;
  double h_total;  ///< freestream total enthalpy [J/kg]
};

/// The one edge closure of the VSL and PNS marches, through \p props
/// alone. The freestream enthalpy comes from enthalpy_at_temperature and
/// the stagnation pressure from solve_rayleigh_pitot. Each station's
/// modified-Newtonian pressure p_e then sets (h_e, u_e) by an isentropic
/// expansion of the stagnation state (p_stag, h_total): dh = dp/rho(p, h),
/// integrated in ln p with a fixed number of RK4 steps, so equilibrium and
/// calorically perfect providers take the same path. The same isentrope
/// gives due/ds (ue due = -dp/rho, dp_e/ds from the body curvature) and,
/// with \p vigneron, the Vigneron fraction from its sound speed;
/// otherwise omega = 1. \p stations are arc lengths, each > 0.
/// Throws SolverError when a station has no edge velocity (p_e at the
/// stagnation pressure).
MarchEdges march_edges(const PropertyProvider& props,
                       const geometry::Body& body, const MarchFreestream& fs,
                       std::span<const double> stations, bool vigneron);

/// Nonsimilar parabolic marching core shared by the VSL and PNS solvers.
class ParabolicMarcher {
 public:
  ParabolicMarcher(PropertyProvider props, MarchOptions opt = {});

  /// March over the given edge stations (s strictly increasing, s[0] > 0).
  /// \p h_total is the freestream total enthalpy.
  std::vector<MarchStationResult> march(
      const std::vector<MarchEdge>& edges, double h_total) const;

 private:
  PropertyProvider props_;
  MarchOptions opt_;
};

/// VSL solver over an axisymmetric body: march_edges edge conditions
/// marched through the shared parabolic core with the full streamwise
/// pressure gradient.
class VslSolver {
 public:
  explicit VslSolver(PropertyProvider props, MarchOptions opt = {});

  /// March over body arc [s_min, s_max] with n uniform stations.
  std::vector<MarchStationResult> solve(const geometry::Body& body,
                                        const MarchFreestream& fs,
                                        double s_min, double s_max,
                                        std::size_t n_stations) const;

 private:
  PropertyProvider props_;
  MarchOptions opt_;
};

}  // namespace cat::solvers
