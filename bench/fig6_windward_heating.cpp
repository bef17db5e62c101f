// Fig. 6 — "Windward Heating Comparison" (from Ref. 20).
//
// PNS windward-centerline heating at the STS-3 condition (V = 6.74 km/s,
// h = 71.3 km, alpha = 40 deg): equilibrium air vs the "ideal gas
// (gamma = 1.2)" model, against STS-3 flight data.
//
// Substitution (DESIGN.md): the STS-3 flight points are synthesized from
// the equilibrium solution with deterministic +/-12% scatter — they play
// the same reference role as the flight symbols in the paper's figure.

#include <cmath>
#include <cstdio>

#include "atmosphere/atmosphere.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "solvers/pns/pns.hpp"

using namespace cat;

int main() {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::MarchOptions mopt;
  mopt.wall_temperature_K = 1100.0;  // hot Orbiter tile surface
  const solvers::PnsSolver pns_eq(solvers::make_equilibrium_props(eq), mopt);
  const solvers::PnsSolver pns_ideal(solvers::make_ideal_props(1.2, 287.053),
                                     mopt);

  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(71300.0);
  const solvers::MarchFreestream fs{6740.0, a.density, a.pressure,
                                    a.temperature};
  geometry::OrbiterGeometry orb;
  const double alpha = 40.0 * M_PI / 180.0;

  std::printf("marching PNS: equilibrium air...\n");
  const auto eq_run = pns_eq.solve(orb, fs, alpha, 32);
  std::printf("marching PNS: ideal gas gamma = 1.2...\n");
  const auto id_run = pns_ideal.solve(orb, fs, alpha, 32);

  io::Table table(
      "Fig 6: windward centerline heating, STS-3 condition "
      "(q in W/cm^2 vs x/L)");
  table.set_columns(
      {"x_over_l", "q_equilibrium", "q_ideal_g1.2", "q_sts3_data"});
  for (std::size_t k = 0; k < eq_run.size(); ++k) {
    // Synthetic STS-3 points: deterministic scatter around the equilibrium
    // solution (see header note).
    const double scatter =
        1.0 + 0.12 * std::sin(9.7 * static_cast<double>(k) + 0.8);
    table.add_row({eq_run[k].x_over_l, eq_run[k].q_w / 1e4,
                   id_run[k].q_w / 1e4, eq_run[k].q_w / 1e4 * scatter});
  }
  table.print();
  io::write_csv(table, "fig6_windward_heating.csv");

  // The figure's comparison: equilibrium vs ideal ratio along the body.
  double ratio_acc = 0.0;
  for (std::size_t k = 0; k < eq_run.size(); ++k)
    ratio_acc += eq_run[k].q_w / id_run[k].q_w;
  std::printf(
      "\nmean q_equilibrium / q_ideal(1.2) = %.3f "
      "(paper shape: the two closely track, equilibrium slightly higher;\n"
      " flight data scatter about both curves)\n",
      ratio_acc / static_cast<double>(eq_run.size()));
  return 0;
}
