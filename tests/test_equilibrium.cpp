// Tests for the Gibbs-minimization equilibrium solver. Anchors:
//  - cold air stays molecular; hot air dissociates then ionizes
//  - element and charge conservation at every solution
//  - detailed-balance consistency with the kinetics (tested in
//    test_chemistry.cpp)
//  - classic equilibrium-air landmarks (50% O2 dissociation near 3500 K at
//    1 atm; N2 dissociation onset near 6000-7000 K)

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "gas/equilibrium.hpp"
#include "gas/species.hpp"

namespace {

using namespace cat::gas;

EquilibriumSolver air_solver(SpeciesSet set) {
  return EquilibriumSolver(std::move(set),
                           {{"N2", 0.79}, {"O2", 0.21}});
}

double element_total(const EquilibriumResult& r, const SpeciesSet& set,
                     Element el) {
  const std::size_t e = static_cast<std::size_t>(el);
  double total = 0.0;
  for (std::size_t s = 0; s < set.size(); ++s)
    total += r.x[s] * set.species(s).composition[e];
  return total;
}

TEST(Equilibrium, ColdAirStaysMolecular) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto r = solver.solve_tp(300.0, 101325.0);
  EXPECT_NEAR(r.x[set.local_index("N2")], 0.79, 1e-6);
  EXPECT_NEAR(r.x[set.local_index("O2")], 0.21, 1e-6);
  EXPECT_LT(r.x[set.local_index("NO")], 1e-10);
  EXPECT_NEAR(r.molar_mass, 0.79 * 28.0134e-3 + 0.21 * 31.9988e-3, 1e-7);
}

TEST(Equilibrium, OxygenHalfDissociatedNear3500KAtOneAtm) {
  // Classic equilibrium-air landmark: O2 is ~50% dissociated at about
  // 3300-3700 K at 1 atm.
  auto set = make_air5();
  const auto solver = air_solver(set);
  double t_half = 0.0;
  for (double t = 2500.0; t < 4500.0; t += 25.0) {
    const auto r = solver.solve_tp(t, 101325.0);
    // Fraction of O atoms bound in O2 relative to total O element.
    const double o_in_o2 = 2.0 * r.x[set.local_index("O2")];
    const double o_total = element_total(r, set, Element::kO);
    if (o_in_o2 / o_total < 0.5) {
      t_half = t;
      break;
    }
  }
  EXPECT_GT(t_half, 3000.0);
  EXPECT_LT(t_half, 4200.0);
}

TEST(Equilibrium, NitrogenDissociatesAboveSixThousandK) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto r5000 = solver.solve_tp(5000.0, 101325.0);
  const auto r9000 = solver.solve_tp(9000.0, 101325.0);
  const std::size_t iN2 = set.local_index("N2");
  const std::size_t iN = set.local_index("N");
  EXPECT_GT(r5000.x[iN2], 0.5);          // still mostly molecular
  EXPECT_GT(r9000.x[iN], r9000.x[iN2]);  // mostly dissociated
}

TEST(Equilibrium, IonizationAboveTenThousandK) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  const auto r = solver.solve_tp(15000.0, 101325.0);
  const double xe = r.x[set.local_index("e-")];
  EXPECT_GT(xe, 0.01);  // noticeably ionized
  // Charge neutrality.
  EXPECT_NEAR(element_total(r, set, Element::kCharge), 0.0, 1e-12);
}

TEST(Equilibrium, ElementRatioConservedAcrossTemperatures) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  for (double t : {500.0, 2000.0, 4000.0, 8000.0, 12000.0, 20000.0}) {
    const auto r = solver.solve_tp(t, 5000.0);
    const double n_el = element_total(r, set, Element::kN);
    const double o_el = element_total(r, set, Element::kO);
    EXPECT_NEAR(n_el / o_el, 2.0 * 0.79 / (2.0 * 0.21), 1e-8) << t;
    double xsum = 0.0;
    for (double x : r.x) xsum += x;
    EXPECT_NEAR(xsum, 1.0, 1e-12);
  }
}

TEST(Equilibrium, MolarMassDropsWithDissociation) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  double prev = 1.0;
  for (double t : {300.0, 3000.0, 5000.0, 8000.0, 12000.0}) {
    const auto r = solver.solve_tp(t, 101325.0);
    EXPECT_LT(r.molar_mass, prev + 1e-12) << t;
    prev = r.molar_mass;
  }
}

TEST(Equilibrium, RhoESolveRoundTrip) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto ref = solver.solve_tp(6500.0, 2.0e4);
  const auto back = solver.solve_rho_e(ref.rho, ref.e);
  EXPECT_NEAR(back.t, ref.t, 1.0);
  EXPECT_NEAR(back.p, ref.p, 1e-3 * ref.p);
}

TEST(Equilibrium, PhSolveRoundTrip) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto ref = solver.solve_tp(4800.0, 5.0e4);
  const auto back = solver.solve_ph(ref.p, ref.h);
  EXPECT_NEAR(back.t, ref.t, 1.0);
  EXPECT_NEAR(back.rho, ref.rho, 1e-3 * ref.rho);
}

TEST(Equilibrium, SoundSpeedReasonableForHotAir) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto cold = solver.solve_rho_e(1.2, solver.solve_tp(300.0, 101325.0).e);
  const double a_cold = solver.sound_speed(cold);
  EXPECT_NEAR(a_cold, 347.0, 12.0);  // equilibrium = frozen for cold air
}

TEST(Equilibrium, PressureLowersDissociation) {
  // Le Chatelier: higher pressure pushes 2N -> N2.
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto lo = solver.solve_tp(7000.0, 1.0e3);
  const auto hi = solver.solve_tp(7000.0, 1.0e6);
  EXPECT_GT(lo.x[set.local_index("N")], hi.x[set.local_index("N")]);
}

TEST(Equilibrium, TitanMixtureProducesCNAtHighTemperature) {
  // Ref. 15 scenario: N2/CH4 Titan atmosphere chemistry produces CN, C2,
  // H2, HCN in the shock layer — the radiating species of Titan entry.
  auto set = make_titan();
  EquilibriumSolver solver(set, {{"N2", 0.95}, {"CH4", 0.05}});
  const auto r = solver.solve_tp(7000.0, 5.0e4);
  EXPECT_GT(r.x[set.local_index("CN")], 1e-5);
  EXPECT_GT(r.x[set.local_index("H")], 1e-3);
  // Methane fully destroyed at 7000 K.
  EXPECT_LT(r.x[set.local_index("CH4")], 1e-8);
}

TEST(Equilibrium, TitanColdMixtureIntact) {
  auto set = make_titan();
  EquilibriumSolver solver(set, {{"N2", 0.95}, {"CH4", 0.05}});
  const auto r = solver.solve_tp(200.0, 1.0e4);
  EXPECT_NEAR(r.x[set.local_index("N2")], 0.95, 1e-4);
  EXPECT_NEAR(r.x[set.local_index("CH4")], 0.05, 1e-4);
}

TEST(Equilibrium, GammaEffBetweenOneAndTwo) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  for (double t : {1000.0, 4000.0, 9000.0}) {
    const auto r = solver.solve_tp(t, 1.0e4);
    EXPECT_GT(r.gamma_eff, 1.0) << t;
    EXPECT_LT(r.gamma_eff, 2.1) << t;
  }
}

TEST(Equilibrium, RejectsElementAbsentFromSet) {
  auto set = make_air5();
  std::array<double, kNumElements> b{};
  b[static_cast<std::size_t>(Element::kN)] = 50.0;
  b[static_cast<std::size_t>(Element::kC)] = 1.0;  // no carbon in air5
  EXPECT_THROW(EquilibriumSolver(set, b), std::invalid_argument);
}

// Parameterized sweep: solver converges and conserves across a (T, p) grid.
struct TpCase {
  double t, p;
};

class EquilibriumSweep : public ::testing::TestWithParam<TpCase> {};

TEST_P(EquilibriumSweep, ConvergesAndConserves) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  const auto [t, p] = GetParam();
  const auto r = solver.solve_tp(t, p);
  double xsum = 0.0;
  for (double x : r.x) {
    EXPECT_GE(x, 0.0);
    xsum += x;
  }
  EXPECT_NEAR(xsum, 1.0, 1e-10);
  EXPECT_NEAR(element_total(r, set, Element::kCharge), 0.0, 1e-10);
  EXPECT_GT(r.rho, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EquilibriumSweep,
    ::testing::Values(TpCase{300.0, 10.0}, TpCase{300.0, 1e6},
                      TpCase{1500.0, 1e2}, TpCase{3000.0, 1e4},
                      TpCase{6000.0, 1e3}, TpCase{6000.0, 1e6},
                      TpCase{10000.0, 1e2}, TpCase{12000.0, 1e5},
                      TpCase{18000.0, 1e3}, TpCase{25000.0, 1e4},
                      TpCase{30000.0, 1e5}));


// ---- inversions: safeguarded Newton on T with warm element potentials ----

struct NamedSolver {
  const char* name;
  EquilibriumSolver eq;
};

const std::vector<NamedSolver>& inversion_gases() {
  static const std::vector<NamedSolver> gases = {
      {"air5", air_solver(make_air5())},
      {"air11", air_solver(make_air11())},
      {"titan", EquilibriumSolver(make_titan(), {{"N2", 0.95}, {"CH4", 0.05}})}};
  return gases;
}

constexpr double kSweepT[] = {200.0,  300.0,  600.0,   1500.0,  3000.0,
                              5000.0, 8000.0, 12000.0, 20000.0, 30000.0};
constexpr double kSweepP[] = {1.0e2, 1.0e4, 1.0e6};

bool near_rel(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

TEST(EquilibriumInversion, EnthalpyInversionRoundTrips) {
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP)
      for (double t : kSweepT) {
        const auto ref = eq.solve_tp(t, p);
        const auto back = eq.solve_ph(p, ref.h);
        EXPECT_TRUE(near_rel(back.t, t, 1e-8)) << name << " " << p << " " << t;
        EXPECT_TRUE(near_rel(back.rho, ref.rho, 1e-8)) << name << " " << p << " " << t;
      }
}

TEST(EquilibriumInversion, EnergyInversionRoundTrips) {
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP)
      for (double t : kSweepT) {
        const auto ref = eq.solve_tp(t, p);
        const auto back = eq.solve_rho_e(ref.rho, ref.e);
        EXPECT_TRUE(near_rel(back.t, t, 1e-8)) << name << " " << p << " " << t;
        EXPECT_TRUE(near_rel(back.p, p, 1e-8)) << name << " " << p << " " << t;
        EXPECT_TRUE(near_rel(back.rho, ref.rho, 1e-8)) << name << " " << p << " " << t;
      }
}

TEST(EquilibriumInversion, IsentropeRoundTrips) {
  // Compress by 1.5 and expand back: the state must come home. (The
  // factor keeps the hottest compressed state below the 40000 K clamp.)
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP)
      for (double t : kSweepT) {
        const auto ref = eq.solve_tp(t, p);
        const auto up = eq.expand_isentropic(ref, 1.5 * p);
        EXPECT_GT(up.t, t) << name << " " << p << " " << t;
        EXPECT_TRUE(near_rel(eq.entropy(up), eq.entropy(ref), 1e-10));
        const auto back = eq.expand_isentropic(up, p);
        EXPECT_TRUE(near_rel(back.t, t, 1e-8)) << name << " " << p << " " << t;
        EXPECT_TRUE(near_rel(back.rho, ref.rho, 1e-8)) << name << " " << p << " " << t;
      }
}

void expect_same_state(const EquilibriumResult& a, const EquilibriumResult& b,
                       double rel, const std::string& where) {
  EXPECT_TRUE(near_rel(a.t, b.t, rel)) << where << " t " << a.t << " " << b.t;
  EXPECT_TRUE(near_rel(a.p, b.p, rel)) << where << " p " << a.p << " " << b.p;
  EXPECT_TRUE(near_rel(a.rho, b.rho, rel)) << where << " rho";
  EXPECT_NEAR(a.h, b.h, rel * (std::fabs(b.h) + 1e6)) << where << " h";
  for (std::size_t s = 0; s < a.x.size(); ++s)
    EXPECT_NEAR(a.x[s], b.x[s], rel) << where << " x[" << s << "]";
}

TEST(EquilibriumInversion, HintedSolvesMatchColdSolves) {
  // A hint changes the path, not the answer: seed every inversion from a
  // neighbour 10 % hotter at 20 % lower pressure.
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP)
      for (double t : kSweepT) {
        const auto ref = eq.solve_tp(t, p);
        const auto near = eq.solve_tp(1.1 * t, 0.8 * p);
        const std::string where = std::string(name) + " " +
                                  std::to_string(p) + " " + std::to_string(t);
        expect_same_state(eq.solve_tp(t, p, &near), ref, 1e-10, where + " tp");
        expect_same_state(eq.solve_ph(p, ref.h, &near), eq.solve_ph(p, ref.h),
                          1e-10, where + " ph");
        expect_same_state(eq.solve_rho_e(ref.rho, ref.e, &near),
                          eq.solve_rho_e(ref.rho, ref.e), 1e-10,
                          where + " rho_e");
      }
  // Below ~30 K the Titan cold start stalls and solve_tp takes the
  // temperature-continuation path; a hinted solve lands on the same state.
  const auto& titan = inversion_gases()[2].eq;
  const auto cold = titan.solve_tp(30.0, 1.0e4);
  const auto near = titan.solve_tp(40.0, 1.0e4);
  expect_same_state(titan.solve_tp(30.0, 1.0e4, &near), cold, 1e-10,
                    "titan continuation");
}

TEST(EquilibriumInversion, OutOfBracketTargetsClampToTheBracketStates) {
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP) {
      const std::string where = std::string(name) + " " + std::to_string(p);
      const auto lo = eq.solve_tp(150.0, p);
      const auto hi = eq.solve_tp(40000.0, p);
      const auto below = eq.solve_ph(p, lo.h - 1e5);
      const auto above = eq.solve_ph(p, hi.h + 1e7);
      EXPECT_EQ(below.t, 150.0) << where;
      EXPECT_EQ(above.t, 40000.0) << where;
      expect_same_state(below, lo, 1e-10, where + " below");
      expect_same_state(above, hi, 1e-10, where + " above");
      // solve_rho_e clamps hot, and reports energies below e(50 K).
      const auto hot = eq.solve_rho_e(hi.rho, hi.e + 1e7);
      EXPECT_EQ(hot.t, 40000.0) << where;
      EXPECT_TRUE(near_rel(hot.rho, hi.rho, 1e-12)) << where;
      EXPECT_THROW((void)eq.solve_rho_e(lo.rho, lo.e - 1e7), cat::SolverError)
          << where;
    }
}

TEST(EquilibriumInversion, AnalyticCpMatchesCentredDifference) {
  // The Newton slope: frozen cp plus the reaction term from the
  // element-potential sensitivities, checked against a centred difference
  // of h(T) at fixed p (the check_partials idiom).
  for (const auto& [name, eq] : inversion_gases())
    for (double p : kSweepP)
      for (double t : kSweepT) {
        const double dt = 1e-4 * t;
        const double fd =
            (eq.solve_tp(t + dt, p).h - eq.solve_tp(t - dt, p).h) / (2.0 * dt);
        const double cp = eq.cp_equilibrium(eq.solve_tp(t, p));
        EXPECT_TRUE(near_rel(cp, fd, 1e-6))
            << name << " " << p << " " << t << " cp " << cp << " fd " << fd;
      }
}

}  // namespace
