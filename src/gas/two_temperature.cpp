#include "gas/two_temperature.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::gas {

using constants::kRu;

namespace {
/// Park's limiting collision cross section for vibrational relaxation [m^2].
constexpr double kParkSigmaV = 3.0e-21;
/// Representable vibronic-temperature bracket of tv_from_vibronic_energy.
constexpr double kTvMin = 20.0, kTvMax = 80000.0;
}  // namespace

// cat-lint: allow-alloc (one-time construction: per-species tables)
TwoTemperatureGas::TwoTemperatureGas(SpeciesSet set)
    : mix_(std::move(set)) {
  const std::size_t ns = mix_.n_species();
  // Millikan-White pair exponents: constant per (molecule, partner) pair,
  // hoisted out of the relaxation-time hot loop.
  mw_a_.assign(ns * ns, 0.0);
  mw_b_.assign(ns * ns, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    const Species& sp = mix_.set().species(s);
    if (!sp.is_molecule()) continue;
    const double theta_v = sp.vib.front().theta;
    for (std::size_t m = 0; m < ns; ++m) {
      const Species& pm = mix_.set().species(m);
      if (pm.is_electron()) continue;
      const double mu_red =  // reduced mass in g/mol (Millikan-White units)
          1.0e3 * sp.molar_mass * pm.molar_mass /
          (sp.molar_mass + pm.molar_mass);
      mw_a_[s * ns + m] =
          1.16e-3 * std::sqrt(mu_red) * std::pow(theta_v, 4.0 / 3.0);
      mw_b_[s * ns + m] = 0.015 * std::pow(mu_red, 0.25);
    }
  }
  // Per-species energy constants (electron translation rides the vibronic
  // pool, so the electron has no trans-rot heat capacity).
  is_molecule_.resize(ns);
  e_ref_.resize(ns);
  cv_tr_.resize(ns);
  ev_nodes_.resize(kTvNodes * ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const Species& sp = mix_.set().species(s);
    is_molecule_[s] = sp.is_molecule();
    e_ref_[s] = (sp.h_formation_298 - reference_thermal_enthalpy(sp)) /
                sp.molar_mass;
    double c = sp.is_electron() ? 0.0 : 1.5 * kRu;
    if (sp.rotor == RotorType::kLinear) c += kRu;
    if (sp.rotor == RotorType::kNonlinear) c += 1.5 * kRu;
    cv_tr_[s] = c / sp.molar_mass;
  }
  // Vibronic energies on log-spaced Tv nodes spanning the bracket.
  tv_nodes_.resize(kTvNodes);
  for (std::size_t i = 0; i < kTvNodes; ++i) {
    const double frac = static_cast<double>(i) / (kTvNodes - 1);
    tv_nodes_[i] = i + 1 == kTvNodes ? kTvMax
                                     : kTvMin * std::pow(kTvMax / kTvMin, frac);
    for (std::size_t s = 0; s < ns; ++s)
      ev_nodes_[i * ns + s] = species_vibronic(s, tv_nodes_[i]).e;
  }
}

ThermalEnergyCv TwoTemperatureGas::species_vibronic(std::size_t s,
                                                    double tv) const {
  const Species& sp = mix_.set().species(s);
  // Electron translation rides the vibronic pool.
  const ThermalEnergyCv m = sp.is_electron()
                                ? ThermalEnergyCv{1.5 * kRu * tv, 1.5 * kRu}
                                : vibronic_energy_cv_mole(sp, tv);
  return {m.e / sp.molar_mass, m.cv / sp.molar_mass};
}

double TwoTemperatureGas::energy(std::span<const double> y, double t,
                                 double tv) const {
  CAT_REQUIRE(y.size() == n_species(), "composition size mismatch");
  double e = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s)
    if (y[s] != 0.0)
      e += y[s] * (e_ref_[s] + cv_tr_[s] * t + species_vibronic(s, tv).e);
  return e;
}

double TwoTemperatureGas::reference_energy(std::span<const double> y) const {
  double e0 = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) e0 += y[s] * e_ref_[s];
  return e0;
}

double TwoTemperatureGas::vibronic_energy(std::span<const double> y,
                                          double tv) const {
  CAT_REQUIRE(y.size() == n_species(), "composition size mismatch");
  double ev = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s)
    if (y[s] != 0.0) ev += y[s] * species_vibronic(s, tv).e;
  return ev;
}

double TwoTemperatureGas::vibronic_cv(std::span<const double> y,
                                      double tv) const {
  double cv = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s)
    if (y[s] != 0.0) cv += y[s] * species_vibronic(s, tv).cv;
  return cv;
}

double TwoTemperatureGas::trans_rot_cv(std::span<const double> y) const {
  double cv = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) cv += y[s] * cv_tr_[s];
  return cv;
}

double TwoTemperatureGas::tv_from_vibronic_energy(std::span<const double> y,
                                                  double ev,
                                                  double tv_guess) const {
  const std::size_t ns = n_species();
  CAT_REQUIRE(y.size() == ns, "composition size mismatch");
  auto node_energy = [&](std::size_t i) {
    double e = 0.0;
    for (std::size_t s = 0; s < ns; ++s) e += y[s] * ev_nodes_[i * ns + s];
    return e;
  };
  // Energies beyond the bracket saturate at the bracket ends: stiff-solver
  // trial states legitimately overshoot the representable vibronic-energy
  // range and expect the documented clamp, not a throw.
  std::size_t lo = 0, hi = kTvNodes - 1;
  double e_lo = node_energy(lo), e_hi = node_energy(hi);
  if (ev <= e_lo) return kTvMin;
  if (ev >= e_hi) return kTvMax;
  // Locate the node cell with e(T_lo) <= ev < e(T_hi) (e is monotone).
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    const double e_mid = node_energy(mid);
    if (e_mid <= ev) {
      lo = mid;
      e_lo = e_mid;
    } else {
      hi = mid;
      e_hi = e_mid;
    }
  }
  const double t_lo = tv_nodes_[lo], t_hi = tv_nodes_[hi];
  // Newton confined to the cell, from the guess when it lies inside and
  // from the linear interpolant otherwise.
  double tv = tv_guess > t_lo && tv_guess < t_hi
                  ? tv_guess
                  : t_lo + (t_hi - t_lo) * (ev - e_lo) / (e_hi - e_lo);
  // Exhaustion is benign: the bisection fallback below always answers.
  for (int it = 0; it < 120; ++it) {  // cat-lint: converges-by-construction
    double e = 0.0, cv = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      if (y[s] == 0.0) continue;
      const ThermalEnergyCv v = species_vibronic(s, tv);
      e += y[s] * v.e;
      cv += y[s] * v.cv;
    }
    const double tn =
        std::clamp(tv - (e - ev) / std::max(cv, 1e-8), t_lo, t_hi);
    if (std::fabs(tn - tv) < 1e-9 * std::max(1.0, tv)) return tn;
    tv = tn;
  }
  // Newton cycling (possible near electronic turn-on where cv_vib is
  // nearly flat): bisect the cell — e(Tv) is monotone and 200 halvings
  // overshoot the width target by construction. The pre-lint code returned
  // the last Newton iterate here without any notice.
  double a = t_lo, b = t_hi;
  for (int it = 0; it < 200; ++it) {  // cat-lint: converges-by-construction
    const double mid = 0.5 * (a + b);
    if (vibronic_energy(y, mid) > ev) {
      b = mid;
    } else {
      a = mid;
    }
    if (b - a < 1e-9 * b) break;
  }
  return 0.5 * (a + b);
}

double TwoTemperatureGas::t_from_energy(std::span<const double> y,
                                        double e_total, double ev,
                                        double t_guess) const {
  // e_total - ev = E0(y) + cv_tr * T with constant cv_tr (translation and
  // rotation are classical), so the inversion is algebraic.
  (void)t_guess;
  const double cv_tr = std::max(trans_rot_cv(y), 1e-8);
  const double t = (e_total - ev - reference_energy(y)) / cv_tr;
  return std::clamp(t, 20.0, 100000.0);
}

double TwoTemperatureGas::pressure(double rho, std::span<const double> y,
                                   double t, double tv) const {
  double p = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) {
    if (y[s] == 0.0) continue;
    const Species& sp = mix_.set().species(s);
    const double temp = sp.is_electron() ? tv : t;
    p += rho * y[s] * kRu * temp / sp.molar_mass;
  }
  return p;
}

double TwoTemperatureGas::relaxation_time(std::size_t s,
                                          std::span<const double> x, double t,
                                          double p, double nd) const {
  CAT_REQUIRE(s < n_species(), "species index out of range");
  const Species& sp = mix_.set().species(s);
  CAT_REQUIRE(sp.is_molecule(), "relaxation time defined for molecules");
  CAT_REQUIRE(t > 0.0 && p > 0.0 && nd > 0.0, "state must be positive");

  const double p_atm = p / 101325.0;
  const double t_cbrt_inv = std::pow(t, -1.0 / 3.0);

  // Millikan-White, mole-fraction averaged over collision partners, with
  // the pair exponents precomputed at construction:
  //   tau_MW = sum(x_m) / sum(x_m / tau_sm)
  double num = 0.0, den = 0.0;
  const std::size_t ns = n_species();
  for (std::size_t m = 0; m < ns; ++m) {
    if (x[m] <= 0.0) continue;
    const double a = mw_a_[s * ns + m];
    if (a == 0.0) continue;  // electron partner: handled separately
    const double b = mw_b_[s * ns + m];
    const double tau_sm = std::exp(a * (t_cbrt_inv - b) - 18.42) / p_atm;
    num += x[m];
    den += x[m] / tau_sm;
  }
  const double tau_mw = den > 0.0 ? num / den : 1.0;

  // Park high-temperature correction: collision-limited relaxation.
  const double cbar = std::sqrt(8.0 * kRu * t / (M_PI * sp.molar_mass));
  const double tau_park = 1.0 / (kParkSigmaV * cbar * nd);

  return tau_mw + tau_park;
}

double TwoTemperatureGas::landau_teller_source(double rho,
                                               std::span<const double> y,
                                               double t, double tv,
                                               double p) const {
  // cat-lint: allow-alloc (convenience overload; hot callers pass scratch)
  std::vector<double> x(n_species());
  return landau_teller_source(rho, y, t, tv, p, x);
}

double TwoTemperatureGas::landau_teller_source(double rho,
                                               std::span<const double> y,
                                               double t, double tv, double p,
                                               std::span<double> x_scratch) const {
  CAT_REQUIRE(x_scratch.size() >= n_species(), "scratch size mismatch");
  const std::span<double> x = x_scratch.first(n_species());
  mix_.mole_fractions(y, x);
  const double mbar = mix_.molar_mass(y);
  const double nd = rho / mbar * constants::kAvogadro;
  double q = 0.0;
  for (std::size_t s = 0; s < n_species(); ++s) {
    if (y[s] <= 0.0 || !is_molecule_[s]) continue;
    const Species& sp = mix_.set().species(s);
    const double tau = relaxation_time(s, x, t, p, nd);
    const double ev_eq = vibronic_energy_mole(sp, t) / sp.molar_mass;
    const double ev = vibronic_energy_mole(sp, tv) / sp.molar_mass;
    q += rho * y[s] * (ev_eq - ev) / tau;
  }
  return q;
}

}  // namespace cat::gas
