// Fig. 2 — "Titan Probe Heating Pulses" (from Ref. 15, Green et al.).
//
// The Ref. 15 scenario: a blunt probe enters Titan's N2/CH4 atmosphere at
// 12 km/s; the stagnation-point convective and radiative heating pulses
// are computed along the trajectory with the equilibrium stagnation-line
// solver and tangent-slab radiation (CN violet/red dominate the radiative
// component in the Titan gas).
//
// Shape to reproduce: both pulses peak near the same time; the radiative
// pulse is sharper (it scales much more steeply with velocity), and both
// decay as the probe decelerates.

#include <cmath>
#include <cstdio>

#include "atmosphere/atmosphere.hpp"
#include "gas/constants.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "scenario/pulse.hpp"

using namespace cat;

int main() {
  // Titan equilibrium gas (N2/CH4 cold composition per the atmosphere).
  gas::EquilibriumSolver eq(gas::make_titan(),
                            {{"N2", 0.95}, {"CH4", 0.05}});
  solvers::StagnationOptions sopt;
  sopt.n_table = 40;
  sopt.n_spectral = 128;
  solvers::StagnationLineSolver stag(eq, sopt);

  atmosphere::TitanAtmosphere atmo;
  trajectory::Vehicle probe = trajectory::titan_probe();
  trajectory::EntryState entry{12000.0, -24.0 * M_PI / 180.0, 600000.0};
  trajectory::TrajectoryOptions topt;
  topt.dt_sample_s = 1.0;
  topt.end_velocity_mps = 1000.0;
  const auto traj = trajectory::integrate_entry(
      probe, entry, atmo, gas::constants::kTitanRadius,
      gas::constants::kTitanG0, topt);

  scenario::PulseOptions popt;
  popt.max_points = 36;
  popt.wall_temperature_K = 1800.0;
  const auto pulse = scenario::heating_pulse(traj, probe, stag, popt);

  io::Table table(
      "Fig 2: Titan probe stagnation heating pulses (V_entry = 12 km/s)");
  table.set_columns(
      {"time_s", "alt_km", "v_kms", "q_conv_Wcm2", "q_rad_Wcm2"});
  for (const auto& p : pulse.points) {
    table.add_row({p.time, p.altitude / 1000.0, p.velocity / 1000.0,
                   p.q_conv / 1e4, p.q_rad / 1e4});
  }
  table.print();
  io::write_csv(table, "fig2_titan_heating.csv");

  // Pulse shape diagnostics (the comparison the figure makes).
  double qc_max = 0.0, qr_max = 0.0, t_qc = 0.0, t_qr = 0.0;
  for (const auto& p : pulse.points) {
    if (p.q_conv > qc_max) {
      qc_max = p.q_conv;
      t_qc = p.time;
    }
    if (p.q_rad > qr_max) {
      qr_max = p.q_rad;
      t_qr = p.time;
    }
  }
  std::printf(
      "\npeak q_conv = %.1f W/cm^2 at t = %.0f s;  "
      "peak q_rad = %.1f W/cm^2 at t = %.0f s\n"
      "integrated heat load = %.1f kJ/cm^2\n",
      qc_max / 1e4, t_qc, qr_max / 1e4, t_qr,
      pulse.heat_load() / 1e7);
  return 0;
}
