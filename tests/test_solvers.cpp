// Integration tests across the solver stack: relax1d physics anchors,
// stagnation-line solver vs engineering correlations, Euler solver
// freestream preservation + textbook anchors, marching solvers (VSL/BL/
// PNS) laminar behavior, two-temperature utilities, EOS table consistency.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "atmosphere/atmosphere.hpp"
#include "chemistry/reaction.hpp"
#include "core/error.hpp"
#include "core/gas_model.hpp"
#include "core/heating.hpp"
#include "gas/eos_table.hpp"
#include "geometry/body.hpp"
#include "solvers/bl/boundary_layer.hpp"
#include "solvers/euler/euler.hpp"
#include "solvers/ns/ns.hpp"
#include "solvers/pns/pns.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/relax1d/relax1d.hpp"
#include "solvers/similarity/similarity.hpp"
#include "solvers/stagnation/stagnation.hpp"
#include "solvers/vsl/vsl.hpp"

namespace {

using namespace cat;

// ---------- two-temperature gas ----------

TEST(TwoTemperature, EnergyRoundTrip) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.6, 0.1, 0.05, 0.15, 0.1};
  const double t = 9000.0, tv = 5000.0;
  const double ev = ttg.vibronic_energy(y, tv);
  const double e = ttg.energy(y, t, tv);
  EXPECT_NEAR(ttg.tv_from_vibronic_energy(y, ev, 2000.0), tv, 0.5);
  EXPECT_NEAR(ttg.t_from_energy(y, e, ev, 2000.0), t, 0.5);
}

TEST(TwoTemperature, TvInversionRoundTrips) {
  const gas::TwoTemperatureGas air5(gas::make_air5());
  const gas::TwoTemperatureGas air11(chemistry::park_air11().species_set());
  auto partly_ionized = [&] {
    const auto& set = air11.mixture().set();
    std::vector<double> y(set.size(), 0.0);
    y[set.local_index("N2")] = 0.55;
    y[set.local_index("O2")] = 0.05;
    y[set.local_index("NO")] = 0.04;
    y[set.local_index("N")] = 0.18;
    y[set.local_index("O")] = 0.17;
    y[set.local_index("NO+")] = 0.006;
    y[set.local_index("N+")] = 0.002;
    y[set.local_index("O+")] = 0.002;
    // Charge-neutral electron mass fraction for the three cations.
    double ne = 0.0;
    for (const char* ion : {"NO+", "N+", "O+"}) {
      const auto s = set.local_index(ion);
      ne += y[s] / set.species(s).molar_mass;
    }
    const auto e = set.local_index("e-");
    y[e] = ne * set.species(e).molar_mass;
    return y;
  };
  const std::vector<double> y5{0.6, 0.1, 0.05, 0.15, 0.1};
  const std::vector<double> y11 = partly_ionized();
  for (const auto& [gas, y] :
       {std::pair{&air5, &y5}, std::pair{&air11, &y11}}) {
    for (const double tv : {30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0,
                            30000.0, 60000.0}) {
      const double ev = gas->vibronic_energy(*y, tv);
      for (const double guess : {1000.0, 5000.0})
        EXPECT_NEAR(gas->tv_from_vibronic_energy(*y, ev, guess), tv,
                    1e-9 * tv)
            << "Tv " << tv << " guess " << guess;
    }
    const double e_lo = gas->vibronic_energy(*y, 20.0);
    const double e_hi = gas->vibronic_energy(*y, 80000.0);
    EXPECT_EQ(gas->tv_from_vibronic_energy(*y, e_lo), 20.0);
    EXPECT_EQ(gas->tv_from_vibronic_energy(*y, 0.5 * e_lo), 20.0);
    EXPECT_EQ(gas->tv_from_vibronic_energy(*y, -1.0), 20.0);
    EXPECT_EQ(gas->tv_from_vibronic_energy(*y, e_hi), 80000.0);
    EXPECT_EQ(gas->tv_from_vibronic_energy(*y, 2.0 * e_hi), 80000.0);
  }
}

TEST(TwoTemperature, RelaxationTimeDecreasesWithTAndP) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  const auto x = gas::Mixture(gas::make_air5()).mole_fractions(y);
  const double nd = 1e24;
  const std::size_t s_n2 = 0;
  const double tau_cold = ttg.relaxation_time(s_n2, x, 2000.0, 1e4, nd);
  const double tau_hot = ttg.relaxation_time(s_n2, x, 8000.0, 1e4, nd);
  EXPECT_LT(tau_hot, tau_cold);
  const double tau_lo_p = ttg.relaxation_time(s_n2, x, 4000.0, 1e3, nd);
  const double tau_hi_p = ttg.relaxation_time(s_n2, x, 4000.0, 1e5, nd);
  EXPECT_LT(tau_hi_p, tau_lo_p);
}

TEST(TwoTemperature, LandauTellerSignDrivesTvTowardT) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  const double q_up = ttg.landau_teller_source(0.01, y, 8000.0, 2000.0, 1e4);
  const double q_dn = ttg.landau_teller_source(0.01, y, 2000.0, 8000.0, 1e4);
  EXPECT_GT(q_up, 0.0);  // vibration absorbs energy when Tv < T
  EXPECT_LT(q_dn, 0.0);
}

// ---------- EOS table ----------

TEST(EosTable, MatchesDirectSolveInside) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 40,
                                      .n_e = 40});
  for (const auto& [rho, e] : std::vector<std::pair<double, double>>{
           {1e-2, 2e6}, {1e-3, 8e6}, {0.5, 1e6}}) {
    const auto ref = eq.solve_rho_e(rho, e);
    EXPECT_NEAR(table.pressure(rho, e), ref.p, 0.03 * ref.p);
    EXPECT_NEAR(table.temperature(rho, e), ref.t, 0.03 * ref.t);
  }
}

TEST(EosTable, EnergyPressureInverse) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 32,
                                      .n_e = 32});
  const double rho = 0.01, e = 5e6;
  const double p = table.pressure(rho, e);
  EXPECT_NEAR(table.energy_from_pressure(rho, p), e, 1e-3 * std::fabs(e));
}

TEST(EosTable, UpperEdgeAndCornerQueriesMatchDirectSolve) {
  // Regression for the BilinearTable upper-edge clamp: queries exactly on
  // the table's rho_max / e_max boundaries (and the far corner) used to
  // be perturbed into the last cell by a -1e-12 fudge. They must be as
  // accurate as interior queries, not extrapolations.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const double rho_max = 1.0, e_max = 2e7;
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = rho_max,
                                      .e_min = -3e5,
                                      .e_max = e_max,
                                      .n_rho = 40,
                                      .n_e = 40});
  for (const auto& [rho, e] : std::vector<std::pair<double, double>>{
           {rho_max, 5e6},           // rho_max edge, interior e
           {1e-2, e_max},            // e_max edge, interior rho
           {rho_max, e_max}}) {      // far corner
    const auto ref = eq.solve_rho_e(rho, e);
    EXPECT_NEAR(table.pressure(rho, e), ref.p, 0.03 * ref.p);
    EXPECT_NEAR(table.temperature(rho, e), ref.t, 0.03 * ref.t);
  }
}

TEST(EosTable, MassFractionsNormalized) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 24,
                                      .n_e = 24});
  std::vector<double> y(5);
  table.mass_fractions(0.02, 7e6, y);
  double sum = 0.0;
  for (double v : y) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---------- fused EOS query ----------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_state_equals_queries(const core::GasModel& gas, double rho,
                                 double e) {
  const gas::EosState st = gas.state(rho, e);
  EXPECT_TRUE(same_bits(st.p, gas.pressure(rho, e)))
      << gas.name() << " rho=" << rho << " e=" << e;
  EXPECT_TRUE(same_bits(st.a, gas.sound_speed(rho, e)))
      << gas.name() << " rho=" << rho << " e=" << e;
  EXPECT_TRUE(same_bits(st.t, gas.temperature(rho, e)))
      << gas.name() << " rho=" << rho << " e=" << e;
}

TEST(GasModel, FusedStateIsBitwiseEqualToScalarQueries) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const gas::EquilibriumEosTable::Range range{.rho_min = 1e-4,
                                              .rho_max = 1.0,
                                              .e_min = -3e5,
                                              .e_max = 2e7,
                                              .n_rho = 24,
                                              .n_e = 24};
  const core::EquilibriumGasModel equilibrium(
      std::make_shared<const gas::EquilibriumEosTable>(eq, range));
  const core::IdealGasModel ideal(gas::IdealGas(1.4, 287.053));
  const std::vector<std::pair<double, double>> states = {
      // interior
      {1e-2, 2e6}, {1e-3, 8e6}, {0.5, 1e6}, {0.37, 1.3e5},
      // table nodes: corners and a point on the lowest density line
      {range.rho_min, range.e_min}, {range.rho_max, range.e_max},
      {range.rho_min, range.e_max}, {range.rho_max, range.e_min},
      {range.rho_min, 2e6},
      // off the table (clamped onto its edges)
      {1e-7, -2e6}, {20.0, 5e8}, {1e-2, 1e9}, {1e-9, 1e6}};
  for (const auto& [rho, e] : states) {
    expect_state_equals_queries(equilibrium, rho, e);
    expect_state_equals_queries(ideal, rho, e);
  }
}

// ---------- relax1d ----------

TEST(Relax1d, FrozenJumpStrongShockAnchors) {
  const auto mech = chemistry::park_air5();
  solvers::PostShockRelaxation solver(mech);
  std::vector<double> y1(5, 0.0);
  y1[0] = 0.767;
  y1[1] = 0.233;
  const auto j = solver.frozen_jump({13.0, 300.0, 10000.0}, y1);
  // Frozen (vibration cold) strong shock: density ratio near 6, frozen
  // temperature ~ 45-50 kK for 10 km/s.
  EXPECT_NEAR(j.density_ratio, 6.0, 0.3);
  EXPECT_GT(j.t, 40000.0);
  EXPECT_LT(j.t, 55000.0);
}

TEST(Relax1d, RelaxationConservesFluxes) {
  const auto mech = chemistry::park_air5();
  solvers::Relax1dOptions opt;
  opt.x_max_m = 0.02;
  opt.n_samples = 24;
  solvers::PostShockRelaxation solver(mech, opt);
  std::vector<double> y1(5, 0.0);
  y1[0] = 0.767;
  y1[1] = 0.233;
  const solvers::ShockTubeFreestream fs{13.0, 300.0, 9000.0};
  const auto prof = solver.solve(fs, y1);
  const double rho1 = 13.0 / (287.0 * 300.0);
  const double m = rho1 * fs.velocity;
  const double pmom = 13.0 + rho1 * fs.velocity * fs.velocity;
  for (std::size_t k = 0; k < prof.size(); k += 6) {
    EXPECT_NEAR(prof.rho[k] * prof.u[k], m, 0.02 * m) << k;
    EXPECT_NEAR(prof.p[k] + prof.rho[k] * prof.u[k] * prof.u[k], pmom,
                0.02 * pmom)
        << k;
  }
}

TEST(Relax1d, StationsConserveFluxesToRoundoff) {
  // The closed-form recovery must hit the flux invariants exactly: a wrong
  // root or a clamped temperature would break them by far more than the
  // roundoff bound, which a percent-level band cannot see.
  for (const auto& mech : {chemistry::park_air5(), chemistry::park_air11()}) {
    solvers::Relax1dOptions opt;
    opt.x_max_m = 0.02;
    opt.n_samples = 24;
    const solvers::PostShockRelaxation solver(mech, opt);
    const gas::TwoTemperatureGas ttg(mech.species_set());
    const auto& set = mech.species_set();
    std::vector<double> y1(mech.n_species(), 0.0);
    y1[set.local_index("N2")] = 0.767;
    y1[set.local_index("O2")] = 0.233;
    const solvers::ShockTubeFreestream fs{13.0, 300.0, 9000.0};
    const auto prof = solver.solve(fs, y1);

    const double rho1 =
        fs.pressure / (mech.mixture().gas_constant(y1) * fs.temperature);
    const double m = rho1 * fs.velocity;
    const double pmom = fs.pressure + m * fs.velocity;
    const double h0 = ttg.energy(y1, fs.temperature, fs.temperature) +
                      fs.pressure / rho1 + 0.5 * fs.velocity * fs.velocity;
    std::vector<double> y(mech.n_species());
    ASSERT_EQ(prof.size(), opt.n_samples + 1);
    for (std::size_t k = 0; k < prof.size(); ++k) {
      for (std::size_t s = 0; s < y.size(); ++s) y[s] = prof.y[s][k];
      const double rho = prof.rho[k], u = prof.u[k], p = prof.p[k];
      EXPECT_NEAR(rho * u, m, 1e-10 * m) << k;
      EXPECT_NEAR(p + rho * u * u, pmom, 1e-10 * pmom) << k;
      const double h =
          ttg.energy(y, prof.t[k], prof.tv[k]) + p / rho + 0.5 * u * u;
      EXPECT_NEAR(h, h0, 1e-10 * std::fabs(h0)) << k;
      EXPECT_NEAR(ttg.pressure(rho, y, prof.t[k], prof.tv[k]), p, 1e-10 * p)
          << k;
    }
  }
}

TEST(Relax1d, TvRisesTFallsTowardCommonValue) {
  const auto mech = chemistry::park_air11();
  solvers::Relax1dOptions opt;
  opt.x_max_m = 1.0;
  opt.n_samples = 48;
  solvers::PostShockRelaxation solver(mech, opt);
  std::vector<double> y1(mech.n_species(), 0.0);
  y1[mech.species_set().local_index("N2")] = 0.767;
  y1[mech.species_set().local_index("O2")] = 0.233;
  const auto prof = solver.solve({13.0, 300.0, 10000.0}, y1);
  const std::size_t last = prof.size() - 1;
  EXPECT_GT(prof.t[0], 40000.0);
  EXPECT_LT(prof.t[last], 12000.0);
  EXPECT_NEAR(prof.t[last], prof.tv[last], 0.1 * prof.t[last]);
  // Oxygen fully dissociated at the end state.
  EXPECT_LT(prof.y[mech.species_set().local_index("O2")][last], 0.01);
}

TEST(Relax1d, ParkSqrtControlSlowsOnset) {
  const auto mech = chemistry::park_air5();
  auto run = [&](bool sqrt_ttv) {
    solvers::Relax1dOptions opt;
    opt.x_max_m = 0.01;
    opt.n_samples = 32;
    opt.park_sqrt_ttv = sqrt_ttv;
    solvers::PostShockRelaxation solver(mech, opt);
    std::vector<double> y1(5, 0.0);
    y1[0] = 0.767;
    y1[1] = 0.233;
    const auto prof = solver.solve({13.0, 300.0, 9000.0}, y1);
    // Dissociated N2 fraction at 2 mm.
    std::size_t k = 0;
    while (k + 1 < prof.size() && prof.x[k] < 2e-3) ++k;
    return 0.767 - prof.y[0][k];
  };
  // With the sqrt(T*Tv) control the early (vibrationally cold) zone
  // dissociates much more slowly.
  EXPECT_LT(run(true), 0.6 * run(false));
}

// ---------- Lees-Dorodnitsyn similarity kernel ----------

// Constant properties (C = rho = 1, Pr = 0.7) reduce the momentum equation
// to Falkner-Skan: f''' + f f'' + beta (1 - f'^2) = 0.
solvers::LayerTable constant_property_table() {
  const std::vector<double> h{0.0, 1.0, 2.0}, one(3, 1.0);
  solvers::LayerTable tab;
  tab.h_lo = 0.0;
  tab.h_hi = 2.0;
  tab.c = numerics::Pchip(h, one);
  tab.c_over_pr = numerics::Pchip(h, {1.0 / 0.7, 1.0 / 0.7, 1.0 / 0.7});
  tab.rho = numerics::Pchip(h, one);
  tab.t = numerics::Pchip(h, one);
  return tab;
}

// Station on H = 1, g_w = 0.5, rho_edge = 1, eta in [0, 8] on 200 points.
solvers::SimilarityResult falkner_skan(double beta,
                                       std::vector<double>* h = nullptr) {
  return solvers::solve_similarity(constant_property_table(),
                                   {beta, 1.0, 0.0, 0.5, 1.0, 8.0, 200},
                                   0.7, 0.5, h);
}

TEST(Similarity, ConstantPropertyShootMatchesFalknerSkan) {
  const auto blasius = falkner_skan(0.0);
  EXPECT_TRUE(blasius.converged);
  EXPECT_NEAR(blasius.fpp0, 0.469600, 1e-5);
  const auto stagnation = falkner_skan(0.5);
  EXPECT_TRUE(stagnation.converged);
  EXPECT_NEAR(stagnation.fpp0, 0.927680, 1e-5);
}

TEST(Similarity, StalledShootReportsUnconverged) {
  // Known-unconverged (see similarity.hpp): from the seed the first shoot
  // hits the f' guard and the Newton stops on the seed, short of the
  // exact f''(0) = 1.232588. It must say so instead of passing it off.
  const auto r = falkner_skan(1.0);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.fpp0, 0.7);
}

TEST(Similarity, ProfileRunsWallToEdge) {
  std::vector<double> h;
  ASSERT_TRUE(falkner_skan(0.5, &h).converged);
  ASSERT_EQ(h.size(), 200u);
  EXPECT_NEAR(h.front(), 0.5, 1e-12);  // g_w H
  EXPECT_NEAR(h.back(), 1.0, 1e-7);    // edge: g = 1
}

// ---------- stagnation line ----------

TEST(Stagnation, MatchesFayRiddellWithinThirtyPercent) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65500.0);
  solvers::StagnationConditions c{6700.0, a.density, a.pressure,
                                  a.temperature, 1.3, 1400.0};
  const auto sol = solver.solve(c);
  const double q_sg = core::sutton_graves(c.rho_inf, c.velocity,
                                          c.nose_radius);
  EXPECT_NEAR(sol.q_conv, q_sg, 0.3 * q_sg);
  EXPECT_GT(sol.edge.t2, 5000.0);
  EXPECT_LT(sol.edge.t2, 7000.0);
}

TEST(Stagnation, HeatingScalesInverseSqrtRadius) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(60000.0);
  solvers::StagnationConditions c1{6000.0, a.density, a.pressure,
                                   a.temperature, 0.5, 1200.0};
  auto c2 = c1;
  c2.nose_radius = 2.0;
  const double q1 = solver.solve(c1).q_conv;
  const double q2 = solver.solve(c2).q_conv;
  EXPECT_NEAR(q1 / q2, 2.0, 0.25);  // sqrt(2.0/0.5) = 2
}

TEST(Stagnation, StandoffScalesWithDensityRatio) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(60000.0);
  solvers::StagnationConditions c{6000.0, a.density, a.pressure,
                                  a.temperature, 1.0, 1200.0};
  const auto edge = solver.shock_layer_edge(c);
  EXPECT_NEAR(edge.standoff, 0.78 * edge.density_ratio * c.nose_radius,
              1e-12);
  EXPECT_LT(edge.density_ratio, 0.12);  // real-gas: much higher than 6:1
}

TEST(Stagnation, RadiativeHeatingTurnsOnWithVelocity) {
  gas::EquilibriumSolver eq(gas::make_air9(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(70000.0);
  solvers::StagnationConditions slow{6500.0, a.density, a.pressure,
                                     a.temperature, 2.0, 1500.0};
  auto fast = slow;
  fast.velocity = 11000.0;
  const double qr_slow = solver.solve(slow).q_rad;
  const double qr_fast = solver.solve(fast).q_rad;
  EXPECT_GT(qr_fast, 20.0 * std::max(qr_slow, 1.0));
}

TEST(Stagnation, ShuttleSmokeShootIsKnownUnconverged) {
  // Known-unconverged (see similarity.hpp): at the smoke serving anchor
  // the similarity shoot stops on its seed, and the solution says so.
  scenario::Case c = *scenario::find_scenario("shuttle_stag_point");
  c.fidelity = scenario::Fidelity::kSmoke;
  const auto eq = scenario::make_equilibrium(c.gas, c.planet);
  const solvers::StagnationLineSolver solver(
      eq, scenario::detail::stagnation_options(c));
  const auto sol = solver.solve(scenario::detail::stagnation_conditions(
      c, scenario::make_planet(c.planet)));
  EXPECT_FALSE(sol.converged);
  EXPECT_GT(sol.q_conv, 0.0);
}

// ---------- Euler FV ----------

TEST(Euler, PreservesUniformFreestream) {
  geometry::Sphere body(0.1);
  // Planar-like check: axisymmetric uniform flow aligned with +x over the
  // outer region; use the grid but march only a few steps and require the
  // far-field cells (outer j rows ahead of the shock formation) to remain
  // at freestream.
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 12, 12,
      [](double) { return 0.08; }, 1.3);
  auto gas_model =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.0));
  solvers::FvOptions opt;
  opt.startup_iters = 0;
  solvers::EulerSolver solver(g, gas_model, opt);
  solvers::FreeStream fs{0.05, 3000.0, 0.0, 2000.0};
  solver.initialize(fs);
  solver.advance(3);
  // Outermost row is still upstream of any disturbance after 3 steps.
  for (std::size_t i = 0; i < g.ni(); ++i) {
    const auto& w = solver.primitive(i, g.nj() - 1);
    EXPECT_NEAR(w[0], fs.rho, 1e-6 * fs.rho) << i;
    EXPECT_NEAR(w[1], fs.u, 1e-4) << i;
  }
}

TEST(Euler, Mach20HemisphereAnchors) {
  // Coarse-grid ideal-gas anchors: pitot pressure and stagnation
  // temperature (total temperature) at M = 20.
  geometry::Sphere body(0.1524);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 24, 24,
      [](double s) { return 0.1524 * (0.3 + 0.4 * s * s); }, 1.3);
  auto gas_model =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.053));
  solvers::FvOptions opt;
  opt.max_iter = 4000;
  opt.residual_tol = 1e-4;
  solvers::EulerSolver solver(g, gas_model, opt);
  const double t_inf = 216.65, p_inf = 5474.9;
  const double rho = p_inf / (287.053 * t_inf);
  const double v = 20.0 * std::sqrt(1.4 * 287.053 * t_inf);
  solver.initialize({rho, v, 0.0, p_inf});
  solver.solve();
  const double t0 = t_inf * (1.0 + 0.2 * 400.0);
  EXPECT_NEAR(solver.temperature(0, 0), t0, 0.05 * t0);
  EXPECT_NEAR(solver.pressure(0, 0), 0.92 * rho * v * v,
              0.08 * 0.92 * rho * v * v);
}

// The per-cell EOS cache must describe the current field exactly: the
// field accessors equal direct EOS queries of primitive(i, j) bit for bit.
void expect_cache_matches_field(const solvers::EulerSolver& solver) {
  const core::GasModel& gas = solver.gas();
  for (std::size_t i = 0; i < solver.grid().ni(); ++i) {
    for (std::size_t j = 0; j < solver.grid().nj(); ++j) {
      const auto& w = solver.primitive(i, j);
      const double mach =
          std::sqrt(w[1] * w[1] + w[2] * w[2]) / gas.sound_speed(w[0], w[3]);
      EXPECT_TRUE(same_bits(solver.temperature(i, j),
                            gas.temperature(w[0], w[3])))
          << i << "," << j;
      EXPECT_TRUE(same_bits(solver.pressure(i, j), gas.pressure(w[0], w[3])))
          << i << "," << j;
      EXPECT_TRUE(same_bits(solver.mach(i, j), mach)) << i << "," << j;
    }
  }
}

grid::StructuredGrid small_hemisphere_grid(const geometry::Sphere& body) {
  const double r = body.nose_radius();
  return grid::make_normal_grid(
      body, body.total_arc_length(), 10, 10,
      [&](double s) {
        const double z = s / body.total_arc_length();
        return r * (0.30 + 0.40 * z * z);
      },
      1.5);
}

TEST(Euler, EosCacheMatchesFieldOnEquilibriumNsHemisphere) {
  geometry::Sphere body(0.05);
  const auto g = small_hemisphere_grid(body);
  const double rho = 3e-4, t_inf = 230.0, v = 5000.0;
  const double p_inf = rho * 287.053 * t_inf;
  solvers::FvOptions opt;
  opt.startup_iters = 20;  // reach the second-order faces within the test
  solvers::NavierStokesSolver solver(
      g, core::make_equilibrium_air_model(rho, t_inf, v, 16), opt);
  solver.initialize({rho, v, 0.0, p_inf});
  // Right after initialize() the cell pressure is the given freestream p,
  // not the EOS value of (rho_inf, e_inf); T and the sound speed are EOS.
  EXPECT_EQ(solver.pressure(3, 3), p_inf);
  const auto& w0 = solver.primitive(3, 3);
  EXPECT_TRUE(same_bits(solver.temperature(3, 3),
                        solver.gas().temperature(w0[0], w0[3])));
  solver.advance(60);
  ASSERT_TRUE(std::isfinite(solver.residual()));
  expect_cache_matches_field(solver);
}

TEST(Euler, EosCacheMatchesFieldOnFiniteRateAir5) {
  geometry::Sphere body(0.05);
  const auto g = small_hemisphere_grid(body);
  const double rho = 3e-4, t_inf = 230.0, v = 5000.0;
  auto mech = std::make_shared<chemistry::Mechanism>(chemistry::park_air5());
  std::vector<double> y0(mech->n_species(), 0.0);
  y0[mech->species_set().local_index("N2")] = 0.767;
  y0[mech->species_set().local_index("O2")] = 0.233;
  solvers::FvOptions opt;
  opt.startup_iters = 20;
  opt.mechanism = mech;
  opt.species_y0 = y0;
  solvers::EulerSolver solver(
      g, core::make_equilibrium_air_model(rho, t_inf, v, 16), opt);
  solver.initialize({rho, v, 0.0, rho * 287.053 * t_inf});
  solver.advance(60);
  ASSERT_TRUE(std::isfinite(solver.residual()));
  expect_cache_matches_field(solver);
}

TEST(Euler, SolveCountsOnlyTheIterationsItRan) {
  // The budget is not a multiple of the 50-iteration chunk: the last
  // chunk is 25 iterations and the count must say so.
  geometry::Sphere body(0.1);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 8, 8, [](double) { return 0.08; }, 1.3);
  solvers::FvOptions opt;
  opt.startup_iters = 0;
  opt.max_iter = 75;
  opt.residual_tol = 1e-30;
  solvers::EulerSolver solver(
      g, std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.0)),
      opt);
  solver.initialize({0.05, 3000.0, 0.0, 2000.0});
  EXPECT_EQ(solver.solve(), 75u);
}

// ---------- marching solvers ----------

TEST(Marching, VslHeatingDecaysDownstream) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::VslSolver vsl(solvers::make_equilibrium_props(eq));
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  const auto res =
      vsl.solve(body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  ASSERT_EQ(res.size(), 16u);
  // Heating decays monotonically on the cone (laminar 1/sqrt(s)).
  for (std::size_t k = 6; k < res.size(); ++k)
    EXPECT_LT(res[k].q_w, res[k - 1].q_w) << k;
  EXPECT_GT(res.front().q_w, 1e5);  // W/m^2 scale sanity
}

TEST(Marching, BoundaryLayerMatchesVslOnCone) {
  // Same body + edge physics, two formulations: local similarity (BL) and
  // nonsimilar marching (VSL) should agree within tens of percent.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  solvers::VslSolver vsl(solvers::make_equilibrium_props(eq));
  const auto vres =
      vsl.solve(body, fs, 0.05, 0.9 * body.total_arc_length(), 10);

  solvers::StagnationLineSolver stag(eq);
  solvers::StagnationConditions sc{fs.velocity, fs.rho, fs.p, fs.t, 0.3,
                                   1200.0};
  const auto edge = stag.shock_layer_edge(sc);
  std::vector<solvers::BlStation> stations;
  for (const auto& r : vres)
    stations.push_back({r.s, body.at(r.s).r, r.p_e});
  solvers::BoundaryLayerSolver bl(eq);
  const auto bres = bl.solve(stations, edge.stag_state, edge.h_stag);
  for (std::size_t k = 2; k < vres.size(); ++k) {
    EXPECT_NEAR(bres.q_w[k], vres[k].q_w, 0.45 * vres[k].q_w) << k;
  }
}

TEST(Marching, PnsEquilibriumExceedsIdealModestly) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const solvers::PnsSolver pns_eq(solvers::make_equilibrium_props(eq));
  const solvers::PnsSolver pns_ideal(solvers::make_ideal_props(1.2, 287.053));
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(71300.0);
  const solvers::MarchFreestream fs{6740.0, a.density, a.pressure,
                                    a.temperature};
  geometry::OrbiterGeometry orb;
  const auto eqr = pns_eq.solve(orb, fs, 40.0 * M_PI / 180.0, 12);
  const auto idr = pns_ideal.solve(orb, fs, 40.0 * M_PI / 180.0, 12);
  ASSERT_EQ(eqr.size(), idr.size());
  for (std::size_t k = 2; k < eqr.size(); ++k) {
    const double ratio = eqr[k].q_w / idr[k].q_w;
    EXPECT_GT(ratio, 0.8) << k;   // same family
    EXPECT_LT(ratio, 1.6) << k;   // no runaway divergence
    EXPECT_GT(eqr[k].q_w, 0.0);
  }
  // Heating decays along the windward ray.
  EXPECT_LT(eqr.back().q_w, eqr.front().q_w);
}

// ---------- marching front-end helpers ----------

TEST(MarchFrontEnd, EnthalpyAtTemperatureRoundTripsIdealGas) {
  const double gamma = 1.4, r_gas = 287.053;
  const double cp = gamma * r_gas / (gamma - 1.0);
  const auto props = solvers::make_ideal_props(gamma, r_gas);
  for (const double t : {220.0, 1200.0, 6500.0}) {
    const double h = solvers::enthalpy_at_temperature(props, 1.0e4, t);
    EXPECT_NEAR(h, cp * t, 1e-6 * cp * t) << t;
    EXPECT_NEAR(props(1.0e4, h).t, t, 1e-6 * t);
  }
}

TEST(MarchFrontEnd, EnthalpyBracketWidensBeyondLegacyLimits) {
  // The old hard-coded bisection bracket [-5e6, 5e7] J/kg silently clamped
  // any target outside it. Both out-of-bracket sides must now resolve.
  const double cp = 1004.6855;
  // Above: T = 60000 K needs h ~ 6.0e7 > 5e7.
  const auto hot = solvers::make_ideal_props(1.4, 287.053);
  const double t_hot = 60000.0;
  EXPECT_NEAR(solvers::enthalpy_at_temperature(hot, 1.0e5, t_hot),
              cp * t_hot, 1e-5 * cp * t_hot);
  // Below: a provider with a shifted enthalpy datum puts cold targets
  // at h ~ -2e7 < -5e6.
  const double h0 = -2.0e7;
  const solvers::PropertyProvider shifted = [=](double /*p*/, double h) {
    solvers::PhState st;
    st.h = h;
    st.t = (h - h0) / cp;
    st.rho = 1.0;
    st.mu = 1.8e-5;
    st.pr = 0.72;
    return st;
  };
  const double t_cold = 150.0;
  EXPECT_NEAR(solvers::enthalpy_at_temperature(shifted, 1.0e5, t_cold),
              h0 + cp * t_cold, 1e-5 * std::fabs(h0 + cp * t_cold));
}

TEST(MarchFrontEnd, EnthalpyThrowsWhenTargetUnreachable) {
  // A provider whose temperature saturates can never reach the target;
  // the old bisection silently returned the bracket endpoint instead.
  const solvers::PropertyProvider saturating = [](double /*p*/, double h) {
    solvers::PhState st;
    st.h = h;
    st.t = std::min(h / 1004.0, 1000.0);
    st.rho = 1.0;
    st.mu = 1.8e-5;
    st.pr = 0.72;
    return st;
  };
  EXPECT_THROW(solvers::enthalpy_at_temperature(saturating, 1.0e5, 2000.0),
               SolverError);
}

TEST(MarchFrontEnd, RayleighPitotConvergesForIdealGas) {
  // Calorically perfect strong shock: the density-ratio fixed point must
  // converge to eps ~ (gamma-1)/(gamma+1) = 1/6 and the pitot pressure to
  // the Rayleigh value ~0.9 rho V^2.
  const double gamma = 1.4, r_gas = 287.053, cp = gamma * r_gas / (gamma - 1.0);
  const solvers::DensityProvider rho_of_ph = [=](double p, double h) {
    return p / (r_gas * (h / cp));
  };
  const double t_inf = 220.0, p_inf = 100.0;
  const solvers::MarchFreestream fs{6000.0, p_inf / (r_gas * t_inf), p_inf,
                                    t_inf};
  const auto pitot = solvers::solve_rayleigh_pitot(rho_of_ph, fs, cp * t_inf);
  EXPECT_NEAR(pitot.eps, 1.0 / 6.0, 0.02);
  // The exact Rayleigh pitot value at this M = 20.2 is 0.9205 rho V^2.
  // The closure p2 + rho2 u2^2/2 gives 0.9174; a closure short by
  // rho V^2 eps^2/2, (1 - eps)(1 + eps/2), gives 0.9032 and fails.
  const double q2 = fs.rho * fs.velocity * fs.velocity;
  EXPECT_NEAR(pitot.p_stag, 0.9205 * q2, 0.005 * q2);
}

TEST(MarchFrontEnd, RayleighPitotThrowsWhenUnconverged) {
  // The legacy copies in the VSL and PNS front ends exited their fixed
  // 40-iteration loops silently; the shared helper must report a stall.
  const double gamma = 1.4, r_gas = 287.053, cp = gamma * r_gas / (gamma - 1.0);
  const solvers::DensityProvider rho_of_ph = [=](double p, double h) {
    return p / (r_gas * (h / cp));
  };
  const double t_inf = 220.0, p_inf = 100.0;
  const solvers::MarchFreestream fs{6000.0, p_inf / (r_gas * t_inf), p_inf,
                                    t_inf};
  EXPECT_THROW(solvers::solve_rayleigh_pitot(rho_of_ph, fs, cp * t_inf,
                                             /*eps0=*/0.5, /*max_iters=*/1),
               SolverError);
  EXPECT_THROW(
      solvers::solve_rayleigh_pitot(
          [](double, double) { return -1.0; }, fs, cp * t_inf),
      SolverError);
}

/// Arc lengths on a sphere of radius \p rn at which the modified-Newtonian
/// pressure p_inf + (p_stag - p_inf) sin^2(theta) equals ratio * p_stag.
std::vector<double> stations_at_pressure_ratios(
    const std::vector<double>& ratios, double p_stag, double p_inf,
    double rn) {
  std::vector<double> s;
  for (const double r : ratios) {
    const double sin2 = (r * p_stag - p_inf) / (p_stag - p_inf);
    s.push_back(rn * (0.5 * M_PI - std::asin(std::sqrt(sin2))));
  }
  return s;
}

TEST(MarchFrontEnd, MarchEdgesFollowTheEquilibriumIsentrope) {
  // march_edges integrates dh = dp/rho(p, h) through the provider; for the
  // air5 provider that must land on the Gibbs solver's own isentrope from
  // the same stagnation state (the E+BL closure).
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const auto props = solvers::make_equilibrium_props(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(71300.0);
  const solvers::MarchFreestream fs{6740.0, a.density, a.pressure,
                                    a.temperature};
  const double h_inf = solvers::enthalpy_at_temperature(props, fs.p, fs.t);
  const double p_stag =
      solvers::solve_rayleigh_pitot(
          [&](double p, double h) { return props(p, h).rho; }, fs, h_inf)
          .p_stag;
  const double rn = 1.0;
  const std::vector<double> ratios{0.9, 0.5, 0.1};
  const auto s = stations_at_pressure_ratios(ratios, p_stag, fs.p, rn);
  const auto edges =
      solvers::march_edges(props, geometry::Sphere(rn), fs, s, false);
  const double h_total = h_inf + 0.5 * fs.velocity * fs.velocity;
  EXPECT_EQ(edges.h_total, h_total);
  const auto stag = eq.solve_ph(p_stag, h_total);
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    const auto& e = edges.stations[k];
    ASSERT_NEAR(e.p_e / p_stag, ratios[k], 1e-9);
    const auto ref = eq.expand_isentropic(stag, e.p_e);
    // Tolerance: 1e-4 of the enthalpy drop h_total - h_e, which sets
    // ue^2/2. Both sides are iterative (the RK4 isentrope calls solve_ph,
    // expand_isentropic runs a Newton on T); a wrong path — a frozen or
    // perfect-gas expansion, or the thin-shock-layer ue — misses by
    // percent of the drop.
    const double drop = h_total - ref.h;
    EXPECT_NEAR(e.h_e, ref.h, 1e-4 * drop) << "p_e/p_stag = " << ratios[k];
    EXPECT_NEAR(e.ue, std::sqrt(2.0 * drop), 1e-4 * e.ue);
    EXPECT_EQ(e.vigneron_omega, 1.0);
  }
}

TEST(MarchFrontEnd, MarchEdgesFollowThePerfectGasIsentrope) {
  // For the gamma = 1.2 provider the same integration must reproduce the
  // closed-form isentrope T = T0 (p/p0)^((gamma-1)/gamma), and the
  // Vigneron fraction must use the perfect-gas sound speed gamma R T.
  const double gamma = 1.2, r_gas = 287.053;
  const double cp = gamma * r_gas / (gamma - 1.0);
  const auto props = solvers::make_ideal_props(gamma, r_gas);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(71300.0);
  const solvers::MarchFreestream fs{6740.0, a.density, a.pressure,
                                    a.temperature};
  const double p_stag =
      solvers::solve_rayleigh_pitot(
          [&](double p, double h) { return props(p, h).rho; }, fs,
          cp * fs.t)
          .p_stag;
  const double rn = 1.0;
  const std::vector<double> ratios{0.9, 0.5, 0.1};
  const auto s = stations_at_pressure_ratios(ratios, p_stag, fs.p, rn);
  const geometry::Sphere body(rn);
  const auto edges = solvers::march_edges(props, body, fs, s, true);
  const double t0 = edges.h_total / cp;
  for (std::size_t k = 0; k < ratios.size(); ++k) {
    const auto& e = edges.stations[k];
    const double t_exact =
        t0 * std::pow(e.p_e / p_stag, (gamma - 1.0) / gamma);
    EXPECT_NEAR(e.t_e, t_exact, 1e-6 * t_exact) << ratios[k];
    const double m2 = e.ue * e.ue / (gamma * r_gas * e.t_e);
    EXPECT_NEAR(e.vigneron_omega,
                std::min(1.0, gamma * m2 / (1.0 + (gamma - 1.0) * m2)),
                1e-5)
        << ratios[k];
  }
  // due/ds from the closure matches a centred difference of ue along the
  // body (sign and scale of the pressure-gradient input to the march).
  const double sm = s[1], ds = 1e-5;
  const std::vector<double> pair{sm - ds, sm + ds};
  const auto fd = solvers::march_edges(props, body, fs, pair, false);
  EXPECT_NEAR(edges.stations[1].due_ds,
              (fd.stations[1].ue - fd.stations[0].ue) / (2.0 * ds),
              1e-5 * edges.stations[1].due_ds);
  EXPECT_GT(edges.stations[1].due_ds, 0.0);
}

/// Degenerate axisymmetric body whose generator reports r = 0 on an early
/// arc span — the failure mode the old absolute nose-radius clamps
/// (max(r, 1e-6) in VSL, max(r, 1e-5) in PNS) papered over.
class DegenerateNose final : public geometry::Body {
 public:
  explicit DegenerateNose(double rn) : rn_(rn) {}
  geometry::SurfacePoint at(double s) const override {
    geometry::SurfacePoint pt;
    pt.s = s;
    pt.theta = std::max(0.05, 0.5 * M_PI - s / rn_);
    pt.x = s * std::cos(pt.theta);
    pt.r = s < 0.05 * rn_ ? 0.0 : rn_ * std::sin(std::min(s / rn_, 1.4));
    pt.curvature = 1.0 / rn_;
    return pt;
  }
  double nose_radius() const override { return rn_; }
  double total_arc_length() const override { return 0.5 * M_PI * rn_; }
  std::string name() const override { return "degenerate-nose"; }

 private:
  double rn_;
};

TEST(MarchFrontEnd, NoseRadiusMetricUsesStagnationLimit) {
  // Where the generator degenerates (r = 0 at s > 0) the edge metric must
  // fall back to the analytic stagnation limit r -> s, not an absolute
  // clamp: for any smooth blunt nose r(s) = s + O(s^3/Rn^2), so r/s -> 1.
  // The shared helper itself: every positive geometry radius passes
  // through (including genuinely small aft radii on closing bodies, which
  // the old absolute clamps inflated); a degenerate generator (r <= 0)
  // falls back to the stagnation limit r -> s near the nose and fails
  // loudly aft of it, where no analytic limit exists.
  EXPECT_EQ(solvers::metric_radius(0.2, 0.1, 0.3), 0.2);
  EXPECT_EQ(solvers::metric_radius(1e-7, 1.2, 0.3), 1e-7);
  EXPECT_EQ(solvers::metric_radius(0.0, 0.1, 0.3), 0.1);
  EXPECT_THROW((void)solvers::metric_radius(0.0, 2.0, 0.3), SolverError);

  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const auto props = solvers::make_equilibrium_props(eq);
  const solvers::VslSolver vsl(props);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  const DegenerateNose body(0.3);
  std::vector<double> s(8);
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = 0.002 + (0.12 - 0.002) * static_cast<double>(i) / 7.0;
  const auto edges =
      solvers::march_edges(props, body, fs, s, /*vigneron=*/false).stations;
  for (const auto& e : edges) {
    if (body.at(e.s).r == 0.0) {
      EXPECT_NEAR(e.r, e.s, 1e-12) << "stagnation-limit fallback at s=" << e.s;
    } else {
      EXPECT_EQ(e.r, body.at(e.s).r) << "geometry radius must pass through";
    }
  }
  // The sphere's own r(s) = Rn sin(s/Rn) stays within the analytic-limit
  // band near the nose, so the fallback is consistent with the geometry it
  // replaces: r/s in [2/pi, 1] over the whole quarter arc.
  const geometry::Sphere sphere(0.3);
  for (const double s : {1e-4, 1e-3, 1e-2, 0.1}) {
    const double ratio = sphere.at(s).r / s;
    EXPECT_GT(ratio, 2.0 / M_PI);
    EXPECT_LE(ratio, 1.0 + 1e-12);
  }
  // And the march over the degenerate body still produces finite positive
  // heating (the old 1e-6 m clamp collapsed xi near the axis).
  const auto res = vsl.solve(body, fs, 0.002, 0.12, 8);
  for (const auto& st : res) {
    EXPECT_TRUE(std::isfinite(st.q_w)) << st.s;
    EXPECT_GT(st.q_w, 0.0) << st.s;
  }
}

TEST(MarchFrontEnd, StreamwiseOrderUpgradeShiftsHeatingSlightly) {
  // BDF2 vs the legacy BDF1 history terms on a real sphere-cone: the two
  // marches must stay in the same physical band (the upgrade is a
  // discretization-order change, not a model change) while differing
  // measurably enough that the ladder studies can observe the order.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  solvers::MarchOptions o2;
  solvers::MarchOptions o1;
  o1.streamwise_order = 1;
  const auto props = solvers::make_equilibrium_props(eq);
  const auto r2 = solvers::VslSolver(props, o2).solve(
      body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  const auto r1 = solvers::VslSolver(props, o1).solve(
      body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  ASSERT_EQ(r1.size(), r2.size());
  double max_rel = 0.0;
  for (std::size_t k = 0; k < r1.size(); ++k) {
    const double rel = std::fabs(r2[k].q_w - r1[k].q_w) / r1[k].q_w;
    max_rel = std::max(max_rel, rel);
    EXPECT_LT(rel, 0.08) << "k=" << k << ": order change moved q_w by "
                         << rel;
  }
  EXPECT_GT(max_rel, 1e-8) << "streamwise_order=1 is not reaching the core";
}

}  // namespace
