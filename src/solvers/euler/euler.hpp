#pragma once
/// \file euler.hpp
/// Axisymmetric shock-capturing finite-volume solver for the Euler
/// equations with a pluggable equation of state (ideal gamma or
/// equilibrium air), MUSCL reconstruction and HLLE fluxes.
///
/// This is the "sophisticated multidimensional ideal-gas fluid code" base
/// that the paper's second approach couples real-gas models to: swap the
/// GasModel and the same numerics compute reacting-equilibrium flow
/// (Fig. 4 bow shocks, Fig. 9 when the viscous terms of ns.hpp are added).
/// The upwind discretization "allows the hypersonic bow shock to be
/// captured" (paper, Fig. 9 discussion).

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "chemistry/batch.hpp"
#include "core/gas_model.hpp"
#include "grid/grid.hpp"
#include "numerics/limiters.hpp"

namespace cat::solvers {

/// Freestream primitive state (axial u, radial v).
struct FreeStream {
  double rho, u, v, p;
};

/// Volumetric source hook on the FV RHS (src/verify): returns the steady
/// source density S(x, r) per equation [mass, x-mom, r-mom, energy], added
/// to the semi-discrete update as dU/dt = -(1/V) oint F dA + S. The
/// Method-of-Manufactured-Solutions studies inject the exact flux
/// divergence of the manufactured field here.
using SourceHook = std::function<std::array<double, 4>(double x, double r)>;

/// Exact-state Dirichlet hook (src/verify): primitive [rho, u, v, e] of
/// the manufactured solution at an arbitrary point. When set, every
/// domain boundary becomes a Dirichlet boundary fed by two layers of
/// exact ghost states (replacing the wall/axis/outflow/freestream
/// treatment) so the interior discretization order is observable
/// unpolluted by boundary closures.
using DirichletHook = std::function<std::array<double, 4>(double x, double r)>;

/// Per-species volumetric source hook (src/verify): fills s[n_species]
/// with the steady species source densities [kg/(m^3 s)] at (x, r). The
/// species-transport MMS study injects the exact advective divergence of
/// the manufactured mass fractions here.
using SpeciesSourceHook =
    std::function<void(double x, double r, std::span<double> s)>;

/// Exact species Dirichlet hook (src/verify): fills y[n_species] with the
/// manufactured mass fractions at (x, r); active together with the flow
/// DirichletHook.
using SpeciesDirichletHook =
    std::function<void(double x, double r, std::span<double> y)>;

/// Options for the finite-volume solvers.
struct FvOptions {
  double cfl = 0.4;  // cat-lint: dimensionless
  std::size_t max_iter = 20000;
  double residual_tol = 1e-6;  ///< relative density-residual drop  // cat-lint: dimensionless
  numerics::Limiter limiter = numerics::Limiter::kVanLeer;
  bool muscl = true;               ///< 2nd-order reconstruction
  /// Impulsive-start protection: run this many first-order iterations at
  /// half CFL before enabling MUSCL.
  std::size_t startup_iters = 500;
  bool viscous = false;            ///< add central viscous fluxes (NS)
  double wall_temperature_K = 1000.0;///< isothermal no-slip wall (viscous)
  double prandtl = 0.72;  ///< constant-Pr laminar viscous model  // cat-lint: dimensionless
  SourceHook source;               ///< verification forcing (null = off)
  DirichletHook dirichlet;         ///< verification boundaries (null = off)

  // ---- finite-rate species transport (null mechanism = single fluid) ----
  /// Enables species continuity equations d(rho y_s)/dt +
  /// div(rho u y_s) = wdot_s alongside the bulk flow: SoA species planes,
  /// MUSCL-reconstructed mass fractions upwinded by the HLLE mass flux,
  /// and point-implicit finite-rate sources via the batched chemistry
  /// kernels (chemistry/batch.hpp). First coupling step: one-way (flow
  /// drives chemistry; no energy/EOS feedback, no species diffusion).
  std::shared_ptr<const chemistry::Mechanism> mechanism;
  bool finite_rate = true;         ///< chemistry sources on (false = frozen advection)  // cat-lint: dimensionless
  std::vector<double> species_y0;  ///< freestream/initial mass fractions  // cat-lint: dimensionless
  /// Cells per batched-chemistry call (cache blocking).
  std::size_t species_block = chemistry::BatchEvaluator::kDefaultBlock;  // cat-lint: dimensionless
  SpeciesSourceHook species_source;        ///< verification forcing (null = off)
  SpeciesDirichletHook species_dirichlet;  ///< verification boundaries
};

/// Cell-centered conservative state [rho, rho u, rho v, rho E].
using Conservative = std::array<double, 4>;

/// Primitive state for reconstruction [rho, u, v, e_internal].
/// Internal energy (not pressure) is carried so that general-EOS flux
/// evaluation needs only direct p(rho,e)/a(rho,e) queries — inverting
/// e(rho,p) per face would dominate the runtime of table-based EOS runs.
using Primitive = std::array<double, 4>;

/// Axisymmetric finite-volume Euler/Navier-Stokes solver.
///
/// EOS work is done once per state. initialize() inverts the freestream
/// (rho, p) to e once and keeps that state's {p, a, T}, the speed cap and
/// the energy floor. decode_all() fills a per-cell cache of {p, a, T}
/// through one fused GasModel::state() query, and every cell-centred
/// reader (time step, viscous fluxes, wall ghost, chemistry, the field
/// accessors) reads it. A face side reuses its cell's cached {p, a} when
/// the reconstructed (rho, e) equal that cell's bit for bit (first-order
/// faces, mirror ghosts, zero-slope faces, the uniform freestream region);
/// any other side (limited reconstructions, the no-slip ghost, Dirichlet
/// ghosts) makes one fused query. Results are bitwise those of querying
/// p, a and T separately at every use.
class EulerSolver {
 public:
  EulerSolver(const grid::StructuredGrid& grid,
              std::shared_ptr<const core::GasModel> gas, FvOptions opt = {});

  /// Fill the whole field with the freestream state.
  void initialize(const FreeStream& fs);

  /// Advance until the density residual drops by residual_tol or max_iter
  /// is reached; returns the iterations run.
  std::size_t solve();

  /// Advance exactly n iterations (no convergence check); returns the
  /// current relative residual.
  double advance(std::size_t n);

  double residual() const { return residual_; }

  // ---- field access ----
  const Primitive& primitive(std::size_t i, std::size_t j) const {
    return w_[cidx(i, j)];
  }
  /// Cell pressure: the EOS value once an iteration has run, the
  /// freestream p right after initialize().
  double pressure(std::size_t i, std::size_t j) const {
    return p_[cidx(i, j)];
  }
  double temperature(std::size_t i, std::size_t j) const {
    return eos_[cidx(i, j)].t;
  }
  double mach(std::size_t i, std::size_t j) const;
  double internal_energy(std::size_t i, std::size_t j) const {
    return w_[cidx(i, j)][3];
  }

  const grid::StructuredGrid& grid() const { return grid_; }
  const core::GasModel& gas() const { return *gas_; }

  // ---- species field access (n_species() == 0 without a mechanism) ----
  std::size_t n_species() const { return ns_; }
  double species_mass_fraction(std::size_t s, std::size_t i,
                               std::size_t j) const {
    return ys_[s * u_.size() + cidx(i, j)];
  }
  /// Full mass-fraction plane of species s (cell index = i * nj + j).
  std::span<const double> species_plane(std::size_t s) const {
    return {ys_.data() + s * u_.size(), u_.size()};
  }

  /// Bow-shock detection: for each i-line, the j-index and physical
  /// location of the steepest inward pressure rise.
  struct ShockPoint {
    double x, r;
    std::size_t j;
  };
  std::vector<ShockPoint> shock_locations() const;

  /// Wall heat flux [W/m^2] per i-cell (viscous runs; Fourier at the wall
  /// with the constant-Pr model).
  std::vector<double> wall_heat_flux() const;

 private:
  const grid::StructuredGrid& grid_;
  std::shared_ptr<const core::GasModel> gas_;
  FvOptions opt_;
  FreeStream fs_{};
  // Freestream constants, set once by initialize().
  double e_fs_ = 0.0;         // e(rho_inf, p_inf): the one EOS inversion
  gas::EosState eos_fs_{};    // {p, a, T} at (rho_inf, e_inf)
  double v_cap_ = 0.0;        // decode_all's speed cap
  double e_floor_ = 0.0;      // decode_all's internal-energy floor

  std::vector<Conservative> u_;   // conservative states
  std::vector<Primitive> w_;      // primitive mirror [rho, u, v, e]
  // Cell pressures for the axisymmetric source, the viscous time step and
  // the shock/heat-flux outputs: fs.p after initialize(), eos_[k].p after
  // each decode. Faces never read it (they need the EOS value).
  std::vector<double> p_;
  std::vector<gas::EosState> eos_;  // EOS of w_ per cell (the cache)
  std::vector<Conservative> res_; // accumulated residuals
  // Per-iteration workspaces (workspace convention: preallocated once in
  // the constructor so the residual loop never allocates).
  std::vector<Conservative> u0_scratch_;  // stage-0 state of the RK2 update
  std::vector<double> dt_scratch_;        // per-cell local time steps
  double residual_ = 1.0, residual0_ = -1.0;
  std::size_t iter_count_ = 0;    // for the first-order startup phase
  bool second_order_now_ = true;
  double cfl_now_ = 0.4;

  std::size_t cidx(std::size_t i, std::size_t j) const {
    return i * grid_.nj() + j;
  }

  void decode_all();
  Primitive decode(const Conservative& c) const;
  Conservative encode(const Primitive& p) const;

  /// EOS of a face side owned by cell k: the cell's cached state when
  /// (rho, e) equal the cell's bit for bit, else one fused query
  /// (k = kNoCell for Dirichlet ghosts, which no cell owns).
  gas::EosState side_state(const Primitive& w, std::size_t k) const;
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);

  /// Ghost state of the wall face below cell k.
  Primitive wall_ghost(std::size_t k, double nx, double nr) const;
  Primitive axis_ghost(const Primitive& inside) const;

  /// Dirichlet-mode stencil access along a sweep line: interior indices
  /// return the cell state, out-of-range indices return the exact hook
  /// state at a ghost center extrapolated from the two nearest interior
  /// centers (exact on the uniform verification grids).
  std::array<double, 2> mms_center_i(std::ptrdiff_t qi, std::size_t j) const;
  std::array<double, 2> mms_center_j(std::size_t i, std::ptrdiff_t qj) const;
  Primitive mms_state_i(std::ptrdiff_t qi, std::size_t j) const;
  Primitive mms_state_j(std::size_t i, std::ptrdiff_t qj) const;

  void accumulate_fluxes();
  void accumulate_viscous();
  double local_dt(std::size_t i, std::size_t j) const;

  // ---- species transport (SoA planes, pitch = cell count; empty when no
  // mechanism is configured) ----
  std::size_t ns_ = 0;       ///< species count (0 = single fluid)
  bool chem_active_ = false; ///< finite-rate sources on (mechanism reacts)
  std::vector<double> us_;          ///< conservative rho y_s
  std::vector<double> ys_;          ///< primitive mass fractions
  std::vector<double> res_s_;       ///< species residuals
  std::vector<double> us0_scratch_; ///< RK2 stage-0 species state
  std::vector<double> slope_s_;     ///< limited slopes along the current sweep
  std::vector<double> ghost_s_;     ///< Dirichlet ghost fractions of one line
  std::vector<double> hook_s_;      ///< species_source output of one cell
  std::vector<double> wdot_;        ///< finite-rate sources [kg/(m^3 s)]
  std::vector<double> damp_;        ///< point-implicit factors 1/(1+dt L)
  std::vector<double> chem_rho_;    ///< contiguous rho for the batch kernel
  std::vector<double> chem_t_;      ///< contiguous T for the batch kernel
  chemistry::BatchWorkspace chem_ws_;

  void decode_species();
  /// Batched finite-rate sources + point-implicit damping factors from the
  /// current field (lagged one iteration — steady-state consistent).
  void update_chemistry_source(const std::vector<double>& dts);
  /// Species stencil of one sweep line (along i at fixed j, or along j at
  /// fixed i): the Dirichlet ghost fractions at line positions -2, -1,
  /// len, len + 1 (verification mode) and, at second order, every cell's
  /// limited slope into slope_s_, each computed once.
  void species_line(bool along_i, std::size_t line);
  /// Species upwind flux through face q of that line (between cells q - 1
  /// and q), riding on the HLLE mass flux f0.
  void species_face(bool along_i, std::size_t line, std::size_t q,
                    double f0);
};

}  // namespace cat::solvers
