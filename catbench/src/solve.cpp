// The three solve workloads (stag_sweep, neq_relax, fv_field): seeded
// inputs drawn from a fixed lattice whose reference outputs were captured
// at the benchmark's base commit, timed through scenario::run_case, and a
// traced replay that repeats each case as the public layer calls its
// runner makes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "chemistry/batch.hpp"
#include "chemistry/reaction.hpp"
#include "core/gas_model.hpp"
#include "gas/constants.hpp"
#include "gas/two_temperature.hpp"
#include "geometry/body.hpp"
#include "grid/grid.hpp"
#include "radiation/bands.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/ns/ns.hpp"
#include "solvers/relax1d/relax1d.hpp"
#include "solvers/stagnation/stagnation.hpp"

namespace catbench {
namespace {

using cat::scenario::Case;
using cat::scenario::Fidelity;
using cat::scenario::GasModelKind;
using cat::scenario::Metric;
using cat::scenario::SolverFamily;

/// One cell of a workload's input space. Inputs are the k x k lattice
/// points at the cell's sub-cell centres; a run draws one per cell per
/// pass, so every pass has the same mix of gases, cases and regimes.
struct Stratum {
  std::string label;
  Case base;
  double v_lo, v_hi;  ///< [m/s]
  double s_lo, s_hi;  ///< second axis: altitude [m] or upstream pressure [Pa]
  bool pressure_axis; ///< second axis sets condition.pressure_Pa (log-spaced)
  std::size_t k;
};

struct Workload {
  std::string name;
  std::vector<Stratum> strata;
  std::vector<Band> bands;
};

struct Input {
  std::size_t stratum, i, j;
};

const Case& registry_case(const char* name) {
  const Case* c = cat::scenario::find_scenario(name);
  if (c == nullptr) throw std::runtime_error(std::string("no scenario ") + name);
  return *c;
}

// Bands follow the repository's own test tolerances: 3 % is the
// equilibrium-EOS band (tests/test_solvers.cpp EOS-table checks), 2 % the
// relax1d conservation band, 5 % the FV stagnation-temperature band, 8 %
// the marching-order heating band, 0.01 the relax1d residual-O2 band.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "stag_sweep") {
    Case galileo = registry_case("galileo_class_pulse");
    galileo.family = SolverFamily::kStagnationPoint;
    struct GasRange {
      const char* gas;
      Case base;
      double v_lo, v_hi, h_lo, h_hi;
    };
    const GasRange ranges[] = {
        {"air5", registry_case("shuttle_stag_point"), 5000, 7500, 55e3, 80e3},
        {"air9", galileo, 9000, 12000, 55e3, 75e3},
        {"titan", registry_case("titan_probe_peak_species"), 7000, 11000,
         220e3, 300e3}};
    for (const auto& g : ranges)
      for (int iv = 0; iv < 3; ++iv)
        for (int ih = 0; ih < 2; ++ih) {
          const double dv = (g.v_hi - g.v_lo) / 3, dh = (g.h_hi - g.h_lo) / 2;
          w.strata.push_back({std::string(g.gas) + ".v" + std::to_string(iv) +
                                  ".h" + std::to_string(ih),
                              g.base, g.v_lo + iv * dv, g.v_lo + (iv + 1) * dv,
                              g.h_lo + ih * dh, g.h_lo + (ih + 1) * dh, false,
                              4});
        }
    w.bands = {{"q_conv", 0.03, 0.0},        {"q_rad", 0.03, 1e3},
               {"standoff", 0.03, 0.0},      {"t_stag", 0.03, 0.0},
               {"p_stag", 0.03, 0.0},        {"density_ratio", 0.03, 0.0},
               {"du_dx", 0.03, 0.0}};
  } else if (name == "neq_relax") {
    Case air5 = registry_case("shock_tube_10kms_neq");
    air5.gas = GasModelKind::kAir5;
    const Case& air11 = registry_case("shock_tube_10kms_neq");
    // Narrow speed bands: relaxation cost climbs steeply with shock speed
    // (air11 at 6 km/s costs 1.5x its 5 km/s solve), and each pass should
    // carry the same work whatever the seed. Each band is split into a low-
    // and a high-pressure half, so that a pass, which outlasts a run on its
    // own, holds six cases rather than three.
    const double p_mid = std::sqrt(13.0 * 60.0);
    struct SpeedBand {
      const char* label;
      const Case& base;
      double v_lo, v_hi;
    };
    for (const SpeedBand& b : {SpeedBand{"air5.slow", air5, 5000, 5500},
                               SpeedBand{"air5.fast", air5, 7000, 7500},
                               SpeedBand{"air11.slow", air11, 4800, 5200}}) {
      w.strata.push_back({std::string(b.label) + ".plo", b.base, b.v_lo, b.v_hi, 13, p_mid, true, 3});
      w.strata.push_back({std::string(b.label) + ".phi", b.base, b.v_lo, b.v_hi, p_mid, 60, true, 3});
    }
    w.bands = {{"t_post_shock", 0.02, 0.0}, {"t_final", 0.03, 0.0},
               {"tv_peak", 0.03, 0.0},      {"y_n2_final", 0.0, 0.01},
               {"n_samples", 0.0, 0.0}};
  } else if (name == "fv_field") {
    // Two velocity halves per case, so a pass holds two draws of each
    // case: the NS case's iteration count (2000-2600) varies with the
    // flight state, and one draw per pass would make the median op vary
    // with the seed.
    for (const char* n : {"sphere_euler_shock_shape", "hemisphere_mach20_ns",
                          "hemisphere_fv_neq_air5"}) {
      const Case& c = registry_case(n);
      const double v = c.condition.velocity_mps, h = c.condition.altitude_m;
      w.strata.push_back({std::string(n) + ".slow", c, 0.97 * v, v, h - 2000,
                          h + 2000, false, 4});
      w.strata.push_back({std::string(n) + ".fast", c, v, 1.03 * v, h - 2000,
                          h + 2000, false, 4});
    }
    w.bands = {{"t_stag", 0.05, 0.0},   {"t_max", 0.05, 0.0},
               {"shock_standoff_over_r", 0.05, 0.0}};
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return w;
}

/// FV outputs that only some cases have.
const std::vector<Band> kFvOptionalBands = {
    {"nose_q_w", 0.08, 0.0}, {"y_n2_min", 0.0, 0.02}, {"y_o_max", 0.0, 0.02}};

Case lattice_case(const Stratum& s, std::size_t i, std::size_t j) {
  Case c = s.base;
  const double fi = (static_cast<double>(i) + 0.5) / static_cast<double>(s.k);
  const double fj = (static_cast<double>(j) + 0.5) / static_cast<double>(s.k);
  c.condition.velocity_mps = s.v_lo + fi * (s.v_hi - s.v_lo);
  if (s.pressure_axis)
    c.condition.pressure_Pa = s.s_lo * std::pow(s.s_hi / s.s_lo, fj);
  else
    c.condition.altitude_m = s.s_lo + fj * (s.s_hi - s.s_lo);
  return c;
}

std::string lattice_key(const Workload& w, const Input& in) {
  return w.name + "/" + w.strata[in.stratum].label + "/" +
         std::to_string(in.i) + "/" + std::to_string(in.j);
}

std::vector<Input> make_pass(const Workload& w, Rng& rng) {
  std::vector<Input> pass;
  for (std::size_t s = 0; s < w.strata.size(); ++s) {
    const std::size_t k = w.strata[s].k;
    const std::size_t i = rng.below(k);
    pass.push_back({s, i, rng.below(k)});
  }
  rng.shuffle(pass);
  return pass;
}

std::vector<Band> bands_for(const Workload& w,
                            const std::vector<Metric>& got) {
  std::vector<Band> b = w.bands;
  if (w.name == "fv_field")
    for (const Band& o : kFvOptionalBands)
      if (std::any_of(got.begin(), got.end(),
                      [&](const Metric& m) { return m.name == o.metric; }))
        b.push_back(o);
  return b;
}

// --------------------------------------------------------------------------
// Traced replay: each function repeats its runner's sequence of public
// layer calls with a span around each call, under one root span per
// operation. Probes (direct calls that time a layer at the case's own
// states) run after the root span closes, so they never count towards the
// traced wall time.
// --------------------------------------------------------------------------

struct Counters {
  std::size_t rhs_evals = 0;
  std::size_t fv_ops = 0, fv_iterations = 0, fv_converged = 0;
  double fv_residual_max = 0.0;
  std::size_t eos_lookups = 0;
  double eos_lookup_s = 0.0;
  std::size_t batch_cells = 0;
  double batch_s = 0.0;
  std::size_t probe_errors = 0;
  double sink = 0.0;  ///< keeps probe results observable
};

void probe_equilibrium(const cat::gas::EquilibriumSolver& eq,
                       const cat::solvers::ShockLayerEdge& e, Tracer& tr,
                       std::uint64_t op, Counters& k) {
  try {
    {
      Scope s(&tr, "gas.equilibrium.solve_ph", op);
      k.sink += eq.solve_ph(e.p2, e.h2).t;
    }
    {
      Scope s(&tr, "gas.equilibrium.solve_tp", op);
      k.sink += eq.solve_tp(e.t2, e.p2).h;
    }
    {
      Scope s(&tr, "gas.equilibrium.solve_rho_e", op);
      k.sink += eq.solve_rho_e(e.rho2, e.h2 - e.p2 / e.rho2).t;
    }
  } catch (const std::exception&) {
    ++k.probe_errors;
  }
}

// Mirrors StagnationPointRunner::run (src/scenario/runner.cpp).
std::vector<Metric> replay_stagnation(const Case& c, Tracer& tr,
                                      std::uint64_t op, Counters& k) {
  std::optional<cat::gas::EquilibriumSolver> eq;
  std::optional<cat::solvers::StagnationLineSolver> stag;
  cat::solvers::StagnationConditions sc{};
  std::vector<Metric> m;
  {
    Scope root(&tr, "scenario.run_case", op);
    cat::scenario::PlanetModel planet;
    {
      Scope s(&tr, "atmosphere.make_planet", op);
      planet = cat::scenario::make_planet(c.planet);
    }
    {
      Scope s(&tr, "gas.make_equilibrium", op);
      eq.emplace(cat::scenario::make_equilibrium(c.gas, c.planet));
    }
    {
      Scope s(&tr, "radiation.model_build", op);
      stag.emplace(*eq, cat::scenario::detail::stagnation_options(c));
    }
    sc = cat::scenario::detail::stagnation_conditions(c, planet);
    cat::solvers::StagnationSolution sol;
    {
      Scope s(&tr, "solvers.stagnation.solve", op);
      sol = stag->solve(sc);
    }
    m = {{"q_conv", sol.q_conv, "W/m^2"},
         {"q_rad", sol.q_rad, "W/m^2"},
         {"standoff", sol.edge.standoff, "m"},
         {"t_stag", sol.edge.t_stag, "K"},
         {"p_stag", sol.edge.p_stag, "Pa"},
         {"density_ratio", sol.edge.density_ratio, "-"},
         {"du_dx", sol.du_dx, "1/s"}};
  }
  cat::solvers::ShockLayerEdge edge{};
  {
    Scope s(&tr, "solvers.stagnation.edge", op);
    edge = stag->shock_layer_edge(sc);
  }
  probe_equilibrium(*eq, edge, tr, op, k);
  return m;
}

cat::chemistry::Mechanism air_mechanism(GasModelKind kind) {
  switch (kind) {
    case GasModelKind::kAir5: return cat::chemistry::park_air5();
    case GasModelKind::kAir9: return cat::chemistry::park_air9();
    case GasModelKind::kAir11: return cat::chemistry::park_air11();
    default: throw std::invalid_argument("shock-tube cases need an air mechanism");
  }
}

// Mirrors RelaxationRunner::run (src/scenario/runner_relax.cpp). The
// Relax1dOptions::source hook only counts RHS evaluations: it runs after
// the physics and adds nothing, so the replay's outputs stay bit-identical.
std::vector<Metric> replay_relaxation(const Case& c, Tracer& tr,
                                      std::uint64_t op, Counters& k) {
  namespace sv = cat::solvers;
  std::optional<cat::chemistry::Mechanism> mech;
  std::optional<sv::PostShockRelaxation> solver;
  sv::RelaxationProfile prof;
  std::vector<double> y1;
  std::vector<Metric> m;
  const sv::ShockTubeFreestream fs{c.condition.pressure_Pa,
                                   c.condition.temperature_K,
                                   c.condition.velocity_mps};
  {
    Scope root(&tr, "scenario.run_case", op);
    {
      Scope s(&tr, "chemistry.mechanism_build", op);
      mech.emplace(air_mechanism(c.gas));
    }
    sv::Relax1dOptions opt;
    if (c.fidelity == Fidelity::kSmoke) {
      opt.x_max_m = 0.05;
      opt.n_samples = 48;
    } else {
      opt.x_max_m = 0.10;
      opt.n_samples = 200;
    }
    opt.source = [&k](double, std::span<const double>, std::span<double>) {
      ++k.rhs_evals;
    };
    solver.emplace(*mech, opt);
    y1.assign(mech->n_species(), 0.0);
    y1[mech->species_set().local_index("N2")] = 0.767;
    y1[mech->species_set().local_index("O2")] = 0.233;
    {
      Scope s(&tr, "solvers.relax1d.solve", op);
      prof = solver->solve(fs, y1);
    }
    const auto& set = mech->species_set();
    const std::size_t i_n2 = set.local_index("N2");
    std::size_t k_pk = 0;
    for (std::size_t q = 0; q < prof.size(); ++q)
      if (prof.tv[q] > prof.tv[k_pk]) k_pk = q;
    const cat::radiation::SpectralGrid grid(
        0.2e-6, 1.0e-6, c.fidelity == Fidelity::kSmoke ? 96 : 160);
    std::optional<cat::radiation::RadiationModel> model;
    {
      Scope s(&tr, "radiation.model_build", op);
      model.emplace(set);
    }
    std::vector<double> nd(mech->n_species());
    for (std::size_t s = 0; s < mech->n_species(); ++s)
      nd[s] = prof.rho[k_pk] * prof.y[s][k_pk] / set.species(s).molar_mass *
              cat::gas::constants::kAvogadro;
    double emission = 0.0;
    {
      Scope s(&tr, "radiation.emission", op);
      emission = model->total_emission(nd, prof.t[k_pk], prof.tv[k_pk], grid);
    }
    m = {{"t_post_shock", prof.t.front(), "K"},
         {"t_final", prof.t.back(), "K"},
         {"tv_peak", prof.tv[k_pk], "K"},
         {"x_tv_peak", prof.x[k_pk], "m"},
         {"y_n2_final", prof.y[i_n2].back(), "-"},
         {"peak_emission", emission, "W/m^3"},
         {"n_samples", static_cast<double>(prof.size()), "-"}};
  }
  // Probes at eight profile stations spread over the relaxation zone.
  try {
    {
      Scope s(&tr, "solvers.relax1d.frozen_jump", op);
      k.sink += solver->frozen_jump(fs, y1).t;
    }
    const cat::gas::TwoTemperatureGas ttg(mech->species_set());
    const std::size_t ns = mech->n_species();
    std::vector<double> y(ns), wdot(ns);
    for (std::size_t q = 0; q < 8; ++q) {
      const std::size_t st = q * (prof.size() - 1) / 7;
      for (std::size_t s = 0; s < ns; ++s) y[s] = prof.y[s][st];
      {
        Scope s(&tr, "chemistry.mass_production_rates", op);
        mech->mass_production_rates(prof.rho[st], y, prof.t[st], prof.tv[st],
                                    wdot);
      }
      k.sink += wdot[0];
      Scope s(&tr, "gas.two_temperature.vibronic_energy", op);
      k.sink += ttg.vibronic_energy(y, prof.tv[st]);
    }
  } catch (const std::exception&) {
    ++k.probe_errors;
  }
  return m;
}

// Mirrors FiniteVolumeFieldRunner::run (src/scenario/runner_field.cpp),
// including its smoke/nominal presets.
std::vector<Metric> replay_field(const Case& c, Tracer& tr, std::uint64_t op,
                                 Counters& k) {
  namespace sv = cat::solvers;
  struct Preset {
    std::size_t ni, nj, max_iter, table_n;
    double residual_tol;
  };
  const Preset preset = c.fidelity == Fidelity::kSmoke
                            ? Preset{24, 24, 2600, 32, 1e-4}
                            : Preset{40, 40, 6000, 48, 1e-5};
  const double radius = c.vehicle.nose_radius;
  const cat::geometry::Sphere body(radius);
  std::optional<cat::grid::StructuredGrid> grid;
  std::shared_ptr<const cat::core::GasModel> gas_model;
  std::shared_ptr<cat::chemistry::Mechanism> mech;
  std::unique_ptr<sv::EulerSolver> solver;
  std::vector<Metric> m;
  {
    Scope root(&tr, "scenario.run_case", op);
    cat::scenario::PlanetModel planet;
    {
      Scope s(&tr, "atmosphere.make_planet", op);
      planet = cat::scenario::make_planet(c.planet);
    }
    const auto sc = cat::scenario::detail::stagnation_conditions(c, planet);
    {
      Scope s(&tr, "grid.make_normal_grid", op);
      grid.emplace(cat::grid::make_normal_grid(
          body, body.total_arc_length(), preset.ni, preset.nj,
          [&](double s) {
            const double z = s / body.total_arc_length();
            return radius * (0.30 + 0.40 * z * z);
          },
          1.5));
    }
    if (c.gas == GasModelKind::kIdealGamma) {
      gas_model = std::make_shared<cat::core::IdealGasModel>(
          cat::gas::IdealGas(c.ideal_gamma, 287.053));
    } else {
      Scope s(&tr, "gas.eos_table.build", op);
      gas_model = cat::core::make_equilibrium_air_model(
          sc.rho_inf, sc.t_inf, sc.velocity, preset.table_n);
    }
    sv::FvOptions opt;
    opt.cfl = 0.4;
    opt.max_iter = preset.max_iter;
    opt.residual_tol = preset.residual_tol;
    opt.wall_temperature_K = c.wall_temperature_K;
    std::size_t i_n2 = 0, i_o = 0;
    if (c.finite_rate) {
      {
        Scope s(&tr, "chemistry.mechanism_build", op);
        mech = std::make_shared<cat::chemistry::Mechanism>(air_mechanism(
            c.gas == GasModelKind::kAir9 || c.gas == GasModelKind::kAir11
                ? c.gas
                : GasModelKind::kAir5));
      }
      std::vector<double> y0(mech->n_species(), 0.0);
      i_n2 = mech->species_set().local_index("N2");
      i_o = mech->species_set().local_index("O");
      y0[i_n2] = 0.767;
      y0[mech->species_set().local_index("O2")] = 0.233;
      opt.mechanism = mech;
      opt.species_y0 = std::move(y0);
    }
    if (c.viscous)
      solver = std::make_unique<sv::NavierStokesSolver>(*grid, gas_model, opt);
    else
      solver = std::make_unique<sv::EulerSolver>(*grid, gas_model, opt);
    solver->initialize({sc.rho_inf, sc.velocity, 0.0, sc.p_inf});
    std::size_t iters = 0;
    {
      Scope s(&tr, "solvers.euler.solve", op);
      iters = solver->solve();
    }
    double t_max = 0.0;
    for (std::size_t i = 0; i < grid->ni(); ++i)
      for (std::size_t j = 0; j < grid->nj(); ++j)
        t_max = std::max(t_max, solver->temperature(i, j));
    const double standoff = -solver->shock_locations().front().x / radius;
    m = {{"t_stag", solver->temperature(0, 1), "K"},
         {"t_max", t_max, "K"},
         {"shock_standoff_over_r", standoff, "-"},
         {"iterations", static_cast<double>(iters), "-"},
         {"residual", solver->residual(), "-"}};
    if (c.viscous)
      m.push_back({"nose_q_w", solver->wall_heat_flux().front(), "W/m^2"});
    if (c.finite_rate) {
      double y_n2_min = 1.0, y_o_max = 0.0;
      for (std::size_t i = 0; i < grid->ni(); ++i)
        for (std::size_t j = 0; j < grid->nj(); ++j) {
          y_n2_min = std::min(y_n2_min, solver->species_mass_fraction(i_n2, i, j));
          y_o_max = std::max(y_o_max, solver->species_mass_fraction(i_o, i, j));
        }
      m.push_back({"y_n2_min", y_n2_min, "-"});
      m.push_back({"y_o_max", y_o_max, "-"});
    }
    ++k.fv_ops;
    k.fv_iterations += iters;
    k.fv_residual_max = std::max(k.fv_residual_max, solver->residual());
    if (solver->residual() <= preset.residual_tol) ++k.fv_converged;
  }
  // Probes over the converged field: EOS lookups at every cell, and the
  // batched finite-rate kernel over the whole field.
  const std::size_t ni = grid->ni(), nj = grid->nj(), ncell = ni * nj;
  {
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (std::size_t i = 0; i < ni; ++i)
      for (std::size_t j = 0; j < nj; ++j) {
        const auto& w = solver->primitive(i, j);
        acc += gas_model->pressure(w[0], w[3]) +
               gas_model->temperature(w[0], w[3]) +
               gas_model->sound_speed(w[0], w[3]);
      }
    k.eos_lookup_s += seconds_between(t0, Clock::now());
    k.eos_lookups += 3 * ncell;
    k.sink += acc;
  }
  if (mech) {
    const std::size_t ns = mech->n_species();
    std::vector<double> rho(ncell), t(ncell), y(ns * ncell), wdot(ns * ncell);
    for (std::size_t i = 0; i < ni; ++i)
      for (std::size_t j = 0; j < nj; ++j) {
        const std::size_t q = i * nj + j;
        rho[q] = solver->primitive(i, j)[0];
        t[q] = solver->temperature(i, j);
        for (std::size_t s = 0; s < ns; ++s)
          y[s * ncell + q] = solver->species_mass_fraction(s, i, j);
      }
    cat::chemistry::BatchEvaluator ev(*mech);
    ev.mass_production_rates(rho, y, t, t, wdot, ncell);  // sizes workspaces
    const auto t0 = Clock::now();
    ev.mass_production_rates(rho, y, t, t, wdot, ncell);
    k.batch_s += seconds_between(t0, Clock::now());
    k.batch_cells += ncell;
    k.sink += wdot[0];
  }
  return m;
}

std::vector<Metric> replay(const Case& c, Tracer& tr, std::uint64_t op,
                           Counters& k) {
  switch (c.family) {
    case SolverFamily::kStagnationPoint: return replay_stagnation(c, tr, op, k);
    case SolverFamily::kShockTubeRelaxation: return replay_relaxation(c, tr, op, k);
    case SolverFamily::kFiniteVolumeField: return replay_field(c, tr, op, k);
    default: throw std::logic_error("no replay for this solver family");
  }
}

struct OpRecord {
  Input in;
  double seconds = 0.0;  ///< CPU time of the (single-threaded) run_case
  double wall_s = 0.0;
  bool ok = false;
  std::vector<Metric> metrics;
};

/// Whole passes through run_case, each case on the next CPU, for at most
/// \p budget_s of wall time: the first pass always, another one only while
/// a pass of the mean length so far still fits. (Starting passes until the
/// budget ran out made a run one or two passes long, with the host's speed,
/// wherever a pass took about as long as the budget.)
std::vector<OpRecord> measure(const Workload& w, Rng& rng, double budget_s) {
  std::vector<OpRecord> ops;
  const auto t0 = Clock::now();
  CpuRotation cpus;
  double passes = 0.0, elapsed = 0.0;
  do {
    for (const Input& in : make_pass(w, rng)) {
      cpus.next();
      OpRecord r;
      r.in = in;
      const Case c = lattice_case(w.strata[in.stratum], in.i, in.j);
      const auto a = Clock::now();
      const double cpu = thread_cpu_s();
      try {
        r.metrics = cat::scenario::run_case(c, {1}).metrics;
        r.ok = true;
      } catch (const std::exception&) {
        r.ok = false;
      }
      r.seconds = thread_cpu_s() - cpu;
      r.wall_s = seconds_between(a, Clock::now());
      ops.push_back(std::move(r));
    }
    passes += 1.0;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed + elapsed / passes <= budget_s);
  return ops;
}

/// Warm what a user's process builds once: the species database and every
/// gas or mechanism the workload's cases use.
void warm(const Workload& w) {
  for (const Stratum& s : w.strata) {
    const Case& c = s.base;
    if (c.family == SolverFamily::kShockTubeRelaxation)
      (void)air_mechanism(c.gas);
    else if (c.gas != GasModelKind::kIdealGamma)
      (void)cat::scenario::make_equilibrium(c.gas, c.planet);
  }
}

void put_layer_metrics(const std::map<std::string, SpanTotals>& t,
                       const Counters& k, Report& rep) {
  const auto mean = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.mean_s();
  };
  const auto calls = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  rep.put_layer("gas.make_equilibrium.ms", 1e3 * mean("gas.make_equilibrium"));
  for (const char* f : {"solve_ph", "solve_tp", "solve_rho_e"}) {
    const std::string span = std::string("gas.equilibrium.") + f;
    rep.put_layer(span + ".us", 1e6 * mean(span.c_str()));
    rep.put_layer(span + ".calls", calls(span.c_str()));
  }
  rep.put_layer("gas.eos_table.build.ms", 1e3 * mean("gas.eos_table.build"));
  rep.put_layer("gas.eos_table.lookup.ns",
                k.eos_lookups ? 1e9 * k.eos_lookup_s / static_cast<double>(k.eos_lookups) : 0.0);
  const double edge = mean("solvers.stagnation.edge");
  const double solve = mean("solvers.stagnation.solve");
  rep.put_layer("solvers.stagnation.edge.ms", 1e3 * edge);
  rep.put_layer("solvers.stagnation.solve.ms", 1e3 * solve);
  rep.put_layer("solvers.stagnation.bl_rad.ms", 1e3 * (solve - edge));
  rep.put_layer("radiation.model_build.ms", 1e3 * mean("radiation.model_build"));
  rep.put_layer("chemistry.mechanism_build.ms", 1e3 * mean("chemistry.mechanism_build"));
  rep.put_layer("solvers.relax1d.frozen_jump.us", 1e6 * mean("solvers.relax1d.frozen_jump"));
  const auto relax = t.find("solvers.relax1d.solve");
  const double relax_calls = calls("solvers.relax1d.solve");
  rep.put_layer("solvers.relax1d.solve.s", mean("solvers.relax1d.solve"));
  rep.put_layer("solvers.relax1d.rhs_evals",
                relax_calls ? static_cast<double>(k.rhs_evals) / relax_calls : 0.0);
  rep.put_layer("solvers.relax1d.us_per_rhs",
                k.rhs_evals ? 1e6 * relax->second.total_s / static_cast<double>(k.rhs_evals) : 0.0);
  rep.put_layer("chemistry.mass_production_rates.us",
                1e6 * mean("chemistry.mass_production_rates"));
  rep.put_layer("gas.two_temperature.vibronic_energy.us",
                1e6 * mean("gas.two_temperature.vibronic_energy"));
  rep.put_layer("grid.make_normal_grid.ms", 1e3 * mean("grid.make_normal_grid"));
  const auto euler = t.find("solvers.euler.solve");
  rep.put_layer("solvers.euler.iterations",
                k.fv_ops ? static_cast<double>(k.fv_iterations) / static_cast<double>(k.fv_ops) : 0.0);
  rep.put_layer("solvers.euler.us_per_iter",
                k.fv_iterations ? 1e6 * euler->second.total_s / static_cast<double>(k.fv_iterations) : 0.0);
  rep.put_layer("solvers.euler.final_residual", k.fv_residual_max);
  rep.put_layer("solvers.euler.converged_ratio",
                k.fv_ops ? static_cast<double>(k.fv_converged) / static_cast<double>(k.fv_ops) : 0.0);
  rep.put_layer("chemistry.batch.rates.us_per_cell",
                k.batch_cells ? 1e6 * k.batch_s / static_cast<double>(k.batch_cells) : 0.0);
  rep.put_layer("scenario.run_case.ms", 1e3 * mean("scenario.run_case"));
  rep.put_layer("trace.probe_errors", static_cast<double>(k.probe_errors));
}

}  // namespace

std::vector<Metric> traced_stagnation(const Case& c, Tracer& tr,
                                     std::uint64_t op) {
  Counters k;
  return replay_stagnation(c, tr, op, k);
}

bool is_solve_workload(const std::string& name) {
  return name == "stag_sweep" || name == "neq_relax" || name == "fv_field";
}

double solve_set_up_cpu_s(const Options& opt) {
  const Workload w = make_workload(opt.workload);
  warm(w);
  return process_cpu_s();
}

void run_solve_workload(const Options& opt, Report& rep) {
  const Workload w = make_workload(opt.workload);
  warm(w);
  // The benchmark's own data, so not part of setup_s.
  const References refs = load_references(opt.root + "/catbench/reference.txt");

  Rng rng(opt.seed);
  const auto ops = measure(w, rng, opt.trace ? 0.5 * opt.seconds : opt.seconds);

  std::vector<double> ms;
  double cpu = 0.0;
  for (const OpRecord& r : ops) {
    ++rep.attempted;
    ms.push_back(1e3 * r.seconds);
    cpu += r.seconds;
    const std::string key = lattice_key(w, r.in);
    if (!r.ok) {
      rep.fail(key + ": run_case threw");
      continue;
    }
    const auto ref = refs.find(key);
    const std::string why = check_outputs(
        r.metrics, ref == refs.end() ? nullptr : &ref->second, bands_for(w, r.metrics));
    if (!why.empty()) rep.fail(key + ": " + why);
  }
  const Summary s = summarize(ms);
  rep.put_e2e("ops_per_s", static_cast<double>(ops.size()) / cpu);
  rep.put_e2e("op_ms_p50", s.p50);
  rep.put_e2e("op_ms_tail", s.tail);
  rep.note("op_ms", s);
  if (!opt.trace) return;

  // Traced replay of exactly the same inputs, each on the CPU its untraced
  // run used, checked bit for bit.
  Tracer tr(Clock::now());
  Counters k;
  double untraced = 0.0, traced = 0.0;
  CpuRotation cpus;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    cpus.next();
    const OpRecord& r = ops[i];
    if (!r.ok) continue;
    ++rep.attempted;
    const Case c = lattice_case(w.strata[r.in.stratum], r.in.i, r.in.j);
    std::vector<Metric> got;
    try {
      const std::size_t first = tr.spans().size();
      got = replay(c, tr, i, k);
      traced += tr.seconds(static_cast<std::int64_t>(first));
      untraced += r.wall_s;
    } catch (const std::exception& e) {
      rep.fail(lattice_key(w, r.in) + ": replay threw: " + e.what());
      continue;
    }
    if (!same_bits(got, r.metrics)) {
      rep.replay_ok = false;
      rep.fail(lattice_key(w, r.in) + ": traced replay differs from run_case");
    }
  }
  const auto totals = span_totals(tr.spans());
  put_layer_metrics(totals, k, rep);
  rep.put_layer("trace.overhead_frac", untraced > 0 ? (traced - untraced) / untraced : 0.0);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-s" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!write_spans(path, tr.spans()))
      std::fprintf(stderr, "catbench: cannot write %s\n", path.c_str());
  }
  std::printf("self times (traced replay, %zu spans):\n", tr.spans().size());
  for (const auto& [name, t] : totals)
    std::printf("  %-40s calls %6zu  total %10.3f ms  self %10.3f ms\n",
                name.c_str(), t.calls, 1e3 * t.total_s, 1e3 * t.self_s);
}

int capture_references(const std::string& workload, const std::string& path) {
  const Workload w = make_workload(workload);
  std::vector<Input> all;
  for (std::size_t s = 0; s < w.strata.size(); ++s)
    for (std::size_t i = 0; i < w.strata[s].k; ++i)
      for (std::size_t j = 0; j < w.strata[s].k; ++j) all.push_back({s, i, j});
  std::vector<std::string> lines(all.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::mutex io;
  const auto worker = [&] {
    for (std::size_t q = next++; q < all.size(); q = next++) {
      const Input& in = all[q];
      const Case c = lattice_case(w.strata[in.stratum], in.i, in.j);
      std::string line = lattice_key(w, in);
      try {
        for (const Metric& m : cat::scenario::run_case(c, {1}).metrics) {
          char buf[64];
          std::snprintf(buf, sizeof buf, " %s=%.17g", m.name.c_str(), m.value);
          line += buf;
        }
      } catch (const std::exception& e) {
        ++failures;
        const std::lock_guard<std::mutex> lock(io);
        std::fprintf(stderr, "%s: %s\n", line.c_str(), e.what());
        continue;
      }
      lines[q] = line;
      const std::lock_guard<std::mutex> lock(io);
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max(1u, std::thread::hardware_concurrency()); ++t)
    pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (failures > 0) return 1;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return 1;
  for (const auto& l : lines) std::fprintf(f, "%s\n", l.c_str());
  return std::fclose(f) == 0 ? 0 : 1;
}

}  // namespace catbench
