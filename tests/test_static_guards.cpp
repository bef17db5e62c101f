// Regression tests for the convergence-loop audit driven by
// scripts/cat_lint.py (the static-analysis PR): every bounded iteration
// that used to exhaust its budget silently now either throws a
// cat::Error-derived exception, falls back to a converges-by-construction
// bisection, or saturates at a documented bracket. One test per fixed
// site, pinning the new contract so a regression to silent exhaustion
// cannot ship unnoticed.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "gas/eos_table.hpp"
#include "gas/equilibrium.hpp"
#include "gas/mixture.hpp"
#include "gas/species.hpp"
#include "gas/two_temperature.hpp"
#include "numerics/quadrature.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace cat;

// ---- gas/mixture.cpp: temperature_from_enthalpy ----

TEST(ConvergenceGuards, EnthalpyInversionRoundTripsWithFarSeed) {
  gas::Mixture mix(gas::make_air5());
  const std::vector<double> y{0.5, 0.1, 0.1, 0.2, 0.1};
  // Seeds far from the answer force the safeguarded path (clamped Newton,
  // bisection fallback); the pre-audit code could return an unconverged
  // iterate here without any signal.
  for (const double t : {300.0, 3500.0, 12000.0, 45000.0}) {
    const double h = mix.enthalpy_mass(y, t);
    EXPECT_NEAR(mix.temperature_from_enthalpy(y, h, 59000.0), t, 1e-5 * t);
    EXPECT_NEAR(mix.temperature_from_enthalpy(y, h, 10.0), t, 1e-5 * t);
  }
}

TEST(ConvergenceGuards, EnthalpyOutsideBracketThrows) {
  gas::Mixture mix(gas::make_air5());
  const std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  // No solution exists outside [h(10 K), h(60000 K)]: the old loop
  // silently returned the clamp boundary instead of failing.
  EXPECT_THROW((void)mix.temperature_from_enthalpy(y, -1e12), SolverError);
  EXPECT_THROW((void)mix.temperature_from_enthalpy(y, 1e12), SolverError);
}

// ---- gas/mixture.cpp: temperature_from_energy (documented saturation) ----

TEST(ConvergenceGuards, EnergyInversionSaturatesAtDocumentedBracket) {
  gas::Mixture mix(gas::make_air5());
  const std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  // The API documents "result clamped to [t_min, t_max]": out-of-range
  // energies are a saturation, not a stall. Pin that contract.
  EXPECT_NEAR(mix.temperature_from_energy(y, 1e12, 1000.0, 200.0, 20000.0),
              20000.0, 20.0);
  EXPECT_NEAR(mix.temperature_from_energy(y, -1e12, 1000.0, 200.0, 20000.0),
              200.0, 1.0);
}

// ---- gas/eos_table.cpp: energy_from_pressure ----

TEST(ConvergenceGuards, EosTablePressureInversionThrowsOffTable) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 16,
                                      .n_e = 16});
  const double rho = 0.01;
  // In-range targets still invert (bisection on the monotone table) ...
  const double e = 5e6;
  const double p = table.pressure(rho, e);
  EXPECT_NEAR(table.energy_from_pressure(rho, p), e, 1e-3 * std::fabs(e));
  // ... but a pressure no table entry can produce used to collapse the
  // bisection silently onto a table edge; it now fails loudly.
  const double p_hi = table.pressure(rho, 2e7);
  EXPECT_THROW((void)table.energy_from_pressure(rho, 10.0 * p_hi),
               SolverError);
  EXPECT_THROW((void)table.energy_from_pressure(rho, -p_hi), SolverError);
}

// ---- gas/two_temperature.cpp: tv_from_vibronic_energy ----

TEST(ConvergenceGuards, VibronicInversionRoundTripsAndSaturates) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  const std::vector<double> y{0.6, 0.1, 0.05, 0.15, 0.1};
  // Accurate for in-range energies even with a hostile seed (bisection
  // fallback on the monotone e_v(Tv) curve) ...
  for (const double tv : {800.0, 5000.0, 15000.0, 60000.0}) {
    const double ev = ttg.vibronic_energy(y, tv);
    EXPECT_NEAR(ttg.tv_from_vibronic_energy(y, ev, 79000.0), tv, 1e-4 * tv);
  }
  // ... and saturating (not throwing, not looping) outside the bracket:
  // stiff-integrator trial states overshoot transiently and rely on it.
  EXPECT_DOUBLE_EQ(ttg.tv_from_vibronic_energy(y, -1e12, 5000.0), 20.0);
  EXPECT_DOUBLE_EQ(ttg.tv_from_vibronic_energy(y, 1e12, 5000.0), 80000.0);
}

// ---- numerics/quadrature.cpp: gauss_legendre Newton on Legendre roots ----

TEST(ConvergenceGuards, GaussLegendreHighOrderNodesConverge) {
  // The root Newton now throws on exhaustion instead of quietly keeping an
  // inaccurate node; a high-order rule must therefore pass through cleanly
  // and carry machine-accurate nodes/weights.
  std::vector<double> x, w;
  numerics::gauss_legendre(64, x, w);
  double wsum = 0.0;
  for (const double v : w) wsum += v;
  EXPECT_NEAR(wsum, 2.0, 1e-13);
  for (std::size_t i = 1; i < x.size(); ++i) EXPECT_LT(x[i - 1], x[i]);
  // A 64-point rule integrates cos exactly to machine precision.
  const double integral =
      numerics::gauss([](double t) { return std::cos(t); }, 0.0,
                      1.5707963267948966, 64);
  EXPECT_NEAR(integral, 1.0, 1e-14);
}

// ---- scenario/runner_march.cpp: E+BL station placement ----

TEST(ConvergenceGuards, EblStationPlacementCoversBodySpan) {
  // x/L -> s goes through Hyperboloid::s_of_x, which inverts the body's
  // own arc-length table and throws outside the body instead of
  // collapsing silently onto an arc endpoint. A dense station
  // distribution over the full span must come back monotone in x/L with
  // no placement throw.
  const auto* base = cat::scenario::find_scenario("orbiter_windward_ebl");
  ASSERT_NE(base, nullptr);
  cat::scenario::Case c = *base;
  c.fidelity = cat::scenario::Fidelity::kSmoke;
  c.n_stations = 24;
  const auto r = cat::scenario::run_case(c);
  EXPECT_EQ(r.table.n_rows(), c.n_stations);
  ASSERT_EQ(r.table.headers()[0], "x_over_l");
  for (std::size_t k = 1; k < r.table.n_rows(); ++k)
    EXPECT_GT(r.table.row(k)[0], r.table.row(k - 1)[0]);
}

}  // namespace
