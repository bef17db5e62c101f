// Tests for the RRHO statistical-thermodynamic model (gas/thermo.hpp).
// Reference values are textbook limits: cp of diatomics between 7/2 R
// (vibration frozen) and 9/2 R (vibration fully excited), Sackur-Tetrode
// entropy of monatomic gases, and JANAF-anchored spot checks.

#include <gtest/gtest.h>

#include <cmath>

#include "gas/constants.hpp"
#include "gas/species.hpp"
#include "gas/thermo.hpp"

namespace {

using namespace cat::gas;
using constants::kRu;

const Species& sp(const char* name) {
  return SpeciesDatabase::instance().find(name);
}

TEST(Thermo, ColdDiatomicCpIsSevenHalvesR) {
  // At 300 K the vibrational mode of N2 (theta_v = 3395 K) is frozen.
  EXPECT_NEAR(cp_mole(sp("N2"), 300.0), 3.5 * kRu, 0.02 * kRu);
  EXPECT_NEAR(cp_mole(sp("O2"), 300.0), 3.5 * kRu, 0.11 * kRu);  // low-T el.
}

TEST(Thermo, HotDiatomicCpApproachesNineHalvesR) {
  // Vibration fully excited but electronic still mostly frozen around
  // 3000-4000 K for N2.
  const double cp = cp_mole(sp("N2"), 4000.0);
  EXPECT_GT(cp, 4.3 * kRu);
  EXPECT_LT(cp, 4.8 * kRu);
}

TEST(Thermo, MonatomicCpIsFiveHalvesR) {
  EXPECT_NEAR(cp_mole(sp("Ar"), 1000.0), 2.5 * kRu, 1e-10);
  // N has low-lying electronic states only above 27000 K; at 1000 K pure 5/2.
  EXPECT_NEAR(cp_mole(sp("N"), 1000.0), 2.5 * kRu, 1e-6);
}

TEST(Thermo, EnthalpyAtReferenceEqualsFormation) {
  for (const char* name : {"N2", "O2", "NO", "N", "O", "CN", "CH4"}) {
    const Species& s = sp(name);
    EXPECT_NEAR(enthalpy_mole(s, 298.15), s.h_formation_298,
                std::abs(s.h_formation_298) * 1e-12 + 1e-9)
        << name;
  }
}

TEST(Thermo, JanafSpotCheckN2Enthalpy) {
  // JANAF: H(2000K) - H(298K) for N2 = 56.14 kJ/mol. RRHO should be within
  // ~1%.
  const double dh = enthalpy_mole(sp("N2"), 2000.0);
  EXPECT_NEAR(dh, 56.14e3, 0.02 * 56.14e3);
}

TEST(Thermo, JanafSpotCheckOAtomEntropy) {
  // JANAF: S(O, 298.15 K, 1 bar) = 161.06 J/mol/K.
  EXPECT_NEAR(entropy_mole(sp("O"), 298.15, 1.0e5), 161.06, 1.0);
}

TEST(Thermo, JanafSpotCheckN2Entropy) {
  // JANAF: S(N2, 298.15 K, 1 bar) = 191.61 J/mol/K.
  EXPECT_NEAR(entropy_mole(sp("N2"), 298.15, 1.0e5), 191.61, 1.2);
}

TEST(Thermo, EntropyDecreasesWithPressure) {
  const double s1 = entropy_mole(sp("N2"), 1000.0, 1e4);
  const double s2 = entropy_mole(sp("N2"), 1000.0, 1e6);
  EXPECT_NEAR(s1 - s2, kRu * std::log(1e6 / 1e4), 1e-9);
}

TEST(Thermo, GibbsIdentity) {
  const ThermoEval ev = evaluate(sp("NO"), 3500.0, 2.0e4);
  EXPECT_NEAR(ev.g, ev.h - 3500.0 * ev.s, std::abs(ev.g) * 1e-12);
}

TEST(Thermo, CpIsDerivativeOfEnthalpy) {
  // Central-difference check of cp = dh/dT for several species/temps.
  for (const char* name : {"N2", "O", "NO", "CN", "C2H2", "CH4"}) {
    for (double t : {400.0, 1500.0, 6000.0}) {
      const double dt = 1e-3 * t;
      const double cp_fd = (enthalpy_mole(sp(name), t + dt) -
                            enthalpy_mole(sp(name), t - dt)) /
                           (2.0 * dt);
      EXPECT_NEAR(cp_mole(sp(name), t), cp_fd, 1e-5 * cp_fd + 1e-8)
          << name << " @ " << t;
    }
  }
}

TEST(Thermo, VibronicEnergyMonotone) {
  double prev = -1.0;
  for (double tv = 300.0; tv <= 20000.0; tv += 500.0) {
    const double ev = vibronic_energy_mole(sp("N2"), tv);
    EXPECT_GT(ev, prev);
    prev = ev;
  }
}

TEST(Thermo, VibronicCvMatchesDerivative) {
  for (double tv : {800.0, 3000.0, 9000.0}) {
    const double dt = 1e-3 * tv;
    const double fd = (vibronic_energy_mole(sp("O2"), tv + dt) -
                       vibronic_energy_mole(sp("O2"), tv - dt)) /
                      (2.0 * dt);
    const ThermalEnergyCv v = vibronic_energy_cv_mole(sp("O2"), tv);
    EXPECT_NEAR(v.cv, fd, 1e-5 * fd + 1e-10);
    EXPECT_NEAR(v.e, vibronic_energy_mole(sp("O2"), tv), 1e-12 * v.e);
  }
}

TEST(Thermo, ElectronHasTranslationalOnly) {
  const Species& e = sp("e-");
  EXPECT_NEAR(cp_mole(e, 5000.0), 2.5 * kRu, 1e-9);
  EXPECT_NEAR(internal_energy_thermal(e, 5000.0), 1.5 * kRu * 5000.0, 1e-6);
}

TEST(Thermo, ThrowsOnNonPositiveTemperature) {
  EXPECT_THROW(cp_mole(sp("N2"), 0.0), std::invalid_argument);
  EXPECT_THROW(enthalpy_mole(sp("N2"), -5.0), std::invalid_argument);
}

// Property sweep: h, s, cp finite and positive cp over the full CAT range
// for every species in the database.
class ThermoAllSpecies : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThermoAllSpecies, FiniteAndPhysicalOverRange) {
  const Species& s = SpeciesDatabase::instance()[GetParam()];
  for (double t = 200.0; t <= 30000.0; t *= 1.8) {
    const ThermoEval ev = evaluate(s, t, 1.0e4);
    EXPECT_TRUE(std::isfinite(ev.h)) << s.name;
    EXPECT_TRUE(std::isfinite(ev.s)) << s.name;
    EXPECT_GT(ev.cp, 2.4 * kRu) << s.name << " @ " << t;
    EXPECT_GT(ev.s, 0.0) << s.name << " @ " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecies, ThermoAllSpecies,
    ::testing::Range<std::size_t>(0, SpeciesDatabase::instance().size()));

}  // namespace
