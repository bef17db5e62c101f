#pragma once
/// \file equilibrium.hpp
/// Chemical-equilibrium composition by Gibbs free-energy minimization
/// (element-potential / STANJAN-style formulation).
///
/// The paper: "Many flows can be adequately approximated by assuming an
/// equilibrium real gas ... the thermochemical state of the gas can be
/// defined solely by the local temperature and pressure." This solver is
/// that definition: given (T, p) and the elemental makeup of the gas, it
/// returns the composition minimizing total Gibbs energy. The inversions
/// (p, h), (rho, e) and (p, s) -> (T, composition) — the forms the
/// stagnation-line and finite-volume solvers need — are layered on top as
/// one safeguarded Newton iteration on temperature whose slope is the
/// equilibrium heat capacity (frozen cp plus the reaction term from the
/// element-potential sensitivities).
///
/// Hints. solve_tp/solve_ph/solve_rho_e take an optional converged
/// neighbour \p near (a previous state of a sweep or fixed point): its
/// temperature seeds the inversion and its element potentials warm-start
/// the Gibbs Newton. A hint only changes the path, not the answer (a hinted
/// solve matches the cold one to the inversion tolerance). A hint without
/// potentials for this solver's elements — a default-constructed result,
/// so a sweep can pass its one state variable from the first call on — is
/// ignored, as is a warm start that fails: both take the cold path. The
/// solver keeps no hidden state: all scratch is local to one call, so a
/// result depends only on the call's arguments.

#include <array>
#include <span>
#include <vector>

#include "gas/mixture.hpp"
#include "gas/species.hpp"

namespace cat::gas {

/// Result of an equilibrium solve.
struct EquilibriumResult {
  double t = 0.0;                 ///< [K]
  double p = 0.0;                 ///< [Pa]
  double rho = 0.0;               ///< [kg/m^3]
  std::vector<double> x;          ///< mole fractions (per SpeciesSet order)
  std::vector<double> y;          ///< mass fractions
  double molar_mass = 0.0;        ///< mixture [kg/mol]
  double h = 0.0;                 ///< specific enthalpy [J/kg]
  double e = 0.0;                 ///< specific internal energy [J/kg]
  double gamma_eff = 0.0;         ///< p/(rho e_thermal)+1 effective exponent
  /// Converged element potentials (mu/(Ru T) per active element, in the
  /// solver's element order) and ln of the total moles per kg: the warm
  /// start a hinted solve reuses. Empty in a default-constructed result.
  std::vector<double> pi;
  double ln_n = 0.0;
};

/// Equilibrium solver for a fixed SpeciesSet and elemental abundance.
class EquilibriumSolver {
 public:
  /// \p b_elements: elemental abundance [mol-element per kg mixture]
  /// (see element_moles_per_kg). Elements absent from every species in the
  /// set must have zero abundance.
  EquilibriumSolver(SpeciesSet set,
                    std::array<double, kNumElements> b_elements);

  /// Convenience: cold-mixture definition by species mole fractions.
  EquilibriumSolver(
      SpeciesSet set,
      const std::vector<std::pair<std::string, double>>& cold_mole_fractions);

  const Mixture& mixture() const { return mix_; }

  /// Composition at fixed temperature and pressure.
  EquilibriumResult solve_tp(double t, double p,
                             const EquilibriumResult* near = nullptr) const;

  /// Composition at fixed density and specific internal energy (the
  /// natural query for FV solvers). Newton on T with the equilibrium cv;
  /// each temperature probe finds its pressure by a Newton on ln p.
  /// Energies above e(40000 K) clamp to 40000 K; energies below e(50 K)
  /// throw SolverError.
  EquilibriumResult solve_rho_e(double rho, double e,
                                const EquilibriumResult* near = nullptr) const;

  /// Composition at fixed pressure and specific enthalpy (the natural
  /// query for stagnation-line/boundary-layer solvers). Newton on T with
  /// the equilibrium cp; enthalpies outside [h(150 K), h(40000 K)] clamp
  /// to the bracket end.
  EquilibriumResult solve_ph(double p, double h,
                             const EquilibriumResult* near = nullptr) const;

  /// Equilibrium specific heat at constant pressure [J/(kg K)] of a
  /// converged state: frozen cp plus the reaction term, dh/dT at fixed p.
  double cp_equilibrium(const EquilibriumResult& state) const;

  /// Equilibrium sound speed at a converged state via centered finite
  /// differences of the equilibrium EOS p(rho, e) (numerical, but exact
  /// wrt the model).
  double sound_speed(const EquilibriumResult& state) const;

  /// Mixture specific entropy [J/(kg K)] of a converged state, including
  /// the entropy of mixing (each species at its partial pressure).
  double entropy(const EquilibriumResult& state) const;

  /// Isentropic expansion/compression: state at pressure \p p with the
  /// same entropy as \p from (boundary-layer edge conditions for E+BL),
  /// seeded by \p from; clamps to [160 K, 40000 K].
  EquilibriumResult expand_isentropic(const EquilibriumResult& from,
                                      double p) const;

 private:
  /// Call-local scratch of one solve (defined in equilibrium.cpp).
  struct Workspace;
  /// Temperature and pressure derivatives of a converged state.
  struct Slopes;

  Mixture mix_;
  std::array<double, kNumElements> b_;
  std::vector<std::size_t> active_elements_;  // elements present in the set
  /// Species whose every element has nonzero abundance; others are pinned
  /// to zero mole fraction (an element with zero abundance would drive its
  /// potential to -infinity otherwise).
  std::vector<bool> enabled_;
  /// a(i, s) = stoich_[i * n_species + s]: atoms of active element i in
  /// species s.
  std::vector<double> stoich_;
  double b_scale_;  ///< largest active elemental abundance

  /// Seeds \p ws from a caller's converged neighbour; false (and \p ws
  /// left cold) when there is none or it does not fit.
  bool seed(Workspace& ws, const EquilibriumResult* near) const;
  /// Species thermodynamics at \p t into \p ws (skipped when current).
  void load_thermo(Workspace& ws, double t) const;
  /// Gibbs Newton on the element potentials at fixed (T, p) from the
  /// potentials in \p ws; throws SolverError when it stalls.
  void converge(Workspace& ws, double t, double p) const;
  /// Assembles the Gibbs Newton Jacobian at the state in \p ws and
  /// factors it (ridge-regularized when singular); false when that fails.
  bool factor_jacobian(Workspace& ws) const;
  /// converge() from the warm potentials, falling back to a cold start and
  /// then to temperature continuation from 6000 K.
  void compose(Workspace& ws, double t, double p) const;
  /// Sensitivities of the converged state in \p ws.
  Slopes slopes(Workspace& ws, double t, double p) const;
  EquilibriumResult package(const Workspace& ws, double t, double p) const;
};

}  // namespace cat::gas
