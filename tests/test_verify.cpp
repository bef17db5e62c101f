// Verification subsystem tests: the MMS + observed-order harness that
// gates every future solver refactor (ctest -R verify).
//
//  - verify_mms:        the hand-differentiated manufactured sources match
//                       finite differences of the analytic fluxes (a
//                       derivation slip cannot silently pass);
//  - verify_order:      the required convergence studies — FV Euler
//                       interior, NS with viscous terms, BL tridiag march,
//                       plus temporal orders through the reactor path —
//                       each asserting observed p within +/-0.25 of the
//                       design order on the two finest ladder pairs;
//  - verify_exactness:  manufactured-forcing cancellation through relax1d;
//  - verify_hooks:      SourceHook/Dirichlet plumbing invariants;
//  - verify_consistency: cross-solver agreement (stagnation vs E+BL vs
//                       VSL heating) and the relax1d-vs-reactor vibronic
//                       source path equality (sign/units audit).

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "chemistry/reaction.hpp"
#include "chemistry/source.hpp"
#include "core/gas_model.hpp"
#include "gas/species.hpp"
#include "geometry/body.hpp"
#include "grid/grid.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "solvers/bl/boundary_layer.hpp"
#include "solvers/euler/euler.hpp"
#include "solvers/stagnation/stagnation.hpp"
#include "solvers/vsl/vsl.hpp"
#include "verify/convergence.hpp"
#include "verify/mms.hpp"
#include "verify/studies.hpp"

using namespace cat;

namespace {

// ---------------------------------------------------------------------------
// verify_mms: finite-difference self-checks of the manufactured sources.
// ---------------------------------------------------------------------------

/// Central-difference divergence of the analytic fluxes, for comparison
/// against the hand-derived source terms.
std::array<double, 4> fd_euler_source(const verify::FvManufactured& f,
                                      double x, double y, double h) {
  std::array<double, 4> s{};
  const auto fxp = f.convective_flux_x(x + h, y);
  const auto fxm = f.convective_flux_x(x - h, y);
  const auto fyp = f.convective_flux_y(x, y + h);
  const auto fym = f.convective_flux_y(x, y - h);
  for (int k = 0; k < 4; ++k)
    s[k] = (fxp[k] - fxm[k]) / (2.0 * h) + (fyp[k] - fym[k]) / (2.0 * h);
  return s;
}

std::array<double, 4> fd_ns_source(const verify::FvManufactured& f, double x,
                                   double y, double h) {
  std::array<double, 4> s = fd_euler_source(f, x, y, h);
  const auto vp = f.thin_layer_flux_y(x, y + h);
  const auto vm = f.thin_layer_flux_y(x, y - h);
  for (int k = 0; k < 4; ++k) s[k] -= (vp[k] - vm[k]) / (2.0 * h);
  return s;
}

void expect_source_matches(const verify::FvManufactured& f, bool viscous,
                           double scale_h) {
  const double ext = verify::fv_domain_extent(f);
  for (const double xf : {0.18, 0.52, 0.83}) {
    for (const double yf : {0.22, 0.47, 0.91}) {
      const double x = xf * ext, y = yf * ext;
      const auto exact = viscous ? f.ns_source(x, y) : f.euler_source(x, y);
      const auto fd = viscous ? fd_ns_source(f, x, y, scale_h * ext)
                              : fd_euler_source(f, x, y, scale_h * ext);
      for (int k = 0; k < 4; ++k) {
        const double tol =
            1e-5 * std::max(std::fabs(exact[k]), std::fabs(fd[k])) + 1e-9;
        EXPECT_NEAR(exact[k], fd[k], tol)
            << "component " << k << " at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(verify_mms, euler_source_matches_flux_divergence) {
  expect_source_matches(verify::supersonic_euler_field(), false, 1e-5);
}

TEST(verify_mms, ns_source_matches_flux_divergence) {
  expect_source_matches(verify::viscous_ns_field(), true, 1e-5);
}

TEST(verify_mms, species_source_matches_flux_divergence) {
  const auto flow = verify::supersonic_euler_field();
  const auto sp = verify::species_transport_field();
  const double ext = verify::fv_domain_extent(flow);
  const double h = 1e-5 * ext;
  for (const double xf : {0.18, 0.52, 0.83}) {
    for (const double yf : {0.22, 0.47, 0.91}) {
      const double x = xf * ext, y = yf * ext;
      for (std::size_t s = 0; s < 2; ++s) {
        const double fd = (sp.flux_x(flow, s, x + h, y) -
                           sp.flux_x(flow, s, x - h, y)) /
                              (2.0 * h) +
                          (sp.flux_y(flow, s, x, y + h) -
                           sp.flux_y(flow, s, x, y - h)) /
                              (2.0 * h);
        const double exact = sp.source(flow, s, x, y);
        EXPECT_NEAR(exact, fd, 1e-5 * std::fabs(fd) + 1e-9)
            << "species " << s << " at (" << x << ", " << y << ")";
      }
      // The fractions sum to one everywhere, so the species sources must
      // sum to the mixture mass source div(rho u) (component 0 of the
      // Euler source) — the species system is mass-consistent.
      EXPECT_NEAR(sp.source(flow, 0, x, y) + sp.source(flow, 1, x, y),
                  flow.euler_source(x, y)[0],
                  1e-10 * std::fabs(flow.euler_source(x, y)[0]));
      EXPECT_NEAR(sp.y(0, x, y) + sp.y(1, x, y), 1.0, 1e-15);
    }
  }
}

TEST(verify_mms, march_profiles_satisfy_boundary_conditions) {
  verify::MarchManufactured m;
  EXPECT_NEAR(m.f_profile(0.0), 0.0, 1e-15);
  EXPECT_NEAR(m.f_profile(m.eta_max), 1.0, 1e-12);
  EXPECT_NEAR(m.g_profile(0.0), m.g_w, 1e-15);
  EXPECT_NEAR(m.g_profile(m.eta_max), 1.0, 1e-12);
  // Stream function is the integral of F; derivatives are consistent.
  const double h = 1e-6;
  for (const double eta : {0.7, 2.9, 5.3, 7.4}) {
    EXPECT_NEAR((m.f_stream(eta + h) - m.f_stream(eta - h)) / (2.0 * h),
                m.f_profile(eta), 1e-7);
    EXPECT_NEAR((m.f_profile(eta + h) - m.f_profile(eta - h)) / (2.0 * h),
                m.fp(eta), 1e-6);
    EXPECT_NEAR((m.g_profile(eta + h) - m.g_profile(eta - h)) / (2.0 * h),
                m.gp(eta), 1e-6);
  }
}

// ---------------------------------------------------------------------------
// verify_order: the convergence studies (the acceptance gate).
// ---------------------------------------------------------------------------

void expect_order_study_passes(const char* name) {
  const verify::StudyResult r = verify::run_study(name);
  ASSERT_EQ(r.config.kind, verify::StudyKind::kOrder);
  ASSERT_GE(r.orders.size(), r.config.gate_pairs);
  for (std::size_t k = r.orders.size() - r.config.gate_pairs;
       k < r.orders.size(); ++k) {
    EXPECT_NEAR(r.orders[k].l2, r.config.design_order, r.config.tolerance)
        << name << " pair " << k << ": " << r.detail;
    EXPECT_NEAR(r.orders[k].l1, r.config.design_order,
                2.0 * r.config.tolerance)
        << name << " (L1) pair " << k;
  }
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(verify_order, fv_euler_interior_second_order) {
  expect_order_study_passes("fv_euler_mms");
}

TEST(verify_order, fv_euler_limiter_clip_first_order) {
  expect_order_study_passes("fv_euler_first_order");
}

TEST(verify_order, fv_ns_viscous_second_order) {
  expect_order_study_passes("fv_ns_mms");
}

TEST(verify_order, fv_species_transport_second_order) {
  // The species continuity equations (MUSCL mass fractions riding the
  // HLLE mass flux) must converge at the same design order as the bulk
  // flow they are coupled to.
  expect_order_study_passes("fv_species_mms");
}

TEST(verify_order, bl_march_tridiag_second_order) {
  expect_order_study_passes("bl_march_mms");
}

TEST(verify_order, bl_march_wall_heating_second_order) {
  // Regression for the SourceHook audit: the marching core's wall
  // gradients were plain two-point differences, capping q_w at first
  // order; the one-sided second-order stencils restore design order.
  const verify::StudyResult r = verify::run_study("bl_march_mms");
  ASSERT_GE(r.levels.size(), 3u);
  const std::size_t last = r.levels.size() - 1;
  const double p = verify::observed_order(
      r.levels[last - 1].functional, r.levels[last].functional,
      r.levels[last - 1].h, r.levels[last].h);
  EXPECT_GT(p, 1.6) << "wall q_w error order degraded: " << p;
}

TEST(verify_order, march_dxi_bdf2_second_order) {
  // The tentpole gate: variable-step BDF2 history terms in the VSL/PNS
  // marching core must carry design order 2 in the streamwise spacing.
  expect_order_study_passes("march_dxi_mms");
}

TEST(verify_order, march_dxi_forced_bdf1_first_order) {
  // Negative control: the same ladder forced back to the legacy BDF1
  // history terms must observe p ~ 1 — proving the study detects the
  // defect this PR fixes (and would catch a regression to it).
  expect_order_study_passes("march_dxi_bdf1");
}

TEST(verify_order, pns_vigneron_splitting_second_order) {
  // The Vigneron path: a prescribed omega(s) < 1 scales the admitted
  // streamwise pressure gradient; the march must still close at order 2.
  expect_order_study_passes("pns_vigneron_mms");
}

/// Like expect_order_study_passes but honoring the study's asymmetric
/// order band (smooth mapped grids superconverge benignly; the gate
/// catches degradation below design order, not doing better than it).
void expect_banded_study_passes(const char* name) {
  const verify::StudyResult r = verify::run_study(name);
  ASSERT_EQ(r.config.kind, verify::StudyKind::kOrder);
  ASSERT_GE(r.orders.size(), r.config.gate_pairs);
  const double up = r.config.upper_band();
  for (std::size_t k = r.orders.size() - r.config.gate_pairs;
       k < r.orders.size(); ++k) {
    EXPECT_GE(r.orders[k].l2, r.config.design_order - r.config.tolerance)
        << name << " pair " << k << ": " << r.detail;
    EXPECT_LE(r.orders[k].l2, r.config.design_order + up)
        << name << " pair " << k << ": " << r.detail;
  }
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(verify_order, fv_euler_curvilinear_keeps_design_order) {
  expect_banded_study_passes("fv_euler_curvilinear");
}

TEST(verify_order, fv_ns_stretched_keeps_design_order) {
  expect_banded_study_passes("fv_ns_stretched");
}

TEST(verify_order, ebl_ladder_functional_second_order) {
  // Gated solution verification (no exact solution): the E+BL aft-heating
  // functional must self-converge at the streamwise design order.
  const verify::StudyResult r = verify::run_study("ebl_dxi_ladder");
  ASSERT_EQ(r.config.kind, verify::StudyKind::kFunctionalOrder);
  EXPECT_TRUE(r.passed) << r.detail;
}

TEST(verify_order, reactor_path_bdf2_second_order) {
  expect_order_study_passes("reactor_time_order");
}

TEST(verify_order, stiff_backward_euler_first_order) {
  expect_order_study_passes("stiff_backward_euler");
}

TEST(verify_order, scenario_ladder_reports_convergent_heating) {
  // Solution verification through the scenario::Runner layer: the VSL
  // station ladder must behave like a convergent sequence (shrinking
  // functional increments), even though no exact solution gates it.
  const verify::StudyResult r = verify::run_study("vsl_station_ladder");
  ASSERT_GE(r.levels.size(), 3u);
  const std::size_t last = r.levels.size() - 1;
  const double d_coarse =
      std::fabs(r.levels[last - 1].functional - r.levels[last - 2].functional);
  const double d_fine =
      std::fabs(r.levels[last].functional - r.levels[last - 1].functional);
  EXPECT_LT(d_fine, d_coarse);
  EXPECT_GT(r.richardson, 0.0);
}

// ---------------------------------------------------------------------------
// verify_exactness: manufactured-forcing cancellation through relax1d.
// ---------------------------------------------------------------------------

TEST(verify_exactness, relax1d_reproduces_manufactured_profile) {
  const verify::StudyResult r = verify::run_study("relax1d_mms");
  EXPECT_TRUE(r.passed) << r.detail;
  EXPECT_LT(r.levels.front().error.linf, 1e-5);
}

// ---------------------------------------------------------------------------
// verify_hooks: SourceHook / Dirichlet plumbing invariants.
// ---------------------------------------------------------------------------

TEST(verify_hooks, fv_dirichlet_preserves_uniform_state) {
  // Free-stream preservation: a constant manufactured field with zero
  // source must be an exact discrete steady state of the hooked solver.
  grid::StructuredGrid g(8, 8);
  for (std::size_t i = 0; i <= 8; ++i)
    for (std::size_t j = 0; j <= 8; ++j) {
      g.xn(i, j) = static_cast<double>(i) / 8.0;
      g.rn(i, j) = static_cast<double>(j) / 8.0;
    }
  g.compute_metrics(false);
  auto gas = std::make_shared<core::IdealGasModel>(
      gas::IdealGas(1.4, 287.053));
  const double e0 = gas->energy(1.0, 1.0e5);
  solvers::FvOptions opt;
  opt.startup_iters = 0;
  opt.dirichlet = [e0](double, double) {
    return std::array<double, 4>{1.0, 600.0, 80.0, e0};
  };
  opt.source = [](double, double) { return std::array<double, 4>{}; };
  solvers::EulerSolver solver(g, gas, opt);
  solver.initialize({1.0, 600.0, 80.0, 1.0e5});
  solver.advance(50);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(solver.primitive(i, j)[0], 1.0, 1e-12);
      EXPECT_NEAR(solver.primitive(i, j)[1], 600.0, 1e-9);
      EXPECT_NEAR(solver.primitive(i, j)[2], 80.0, 1e-9);
    }
}

/// Free-stream preservation (discrete GCL) on a randomly-perturbed
/// curvilinear grid: with every face metric computed from the perturbed
/// node coordinates, the face-area vectors of each cell must still close
/// (sum to zero), so a uniform state has identically zero residual. This
/// is the cheap canary for metric bugs that the curvilinear MMS ladders
/// (fv_euler_curvilinear / fv_ns_stretched) would only find through an
/// expensive order collapse.
void expect_freestream_preserved_on_perturbed_grid(bool viscous) {
  constexpr std::size_t n = 12;
  grid::StructuredGrid g(n, n);
  std::mt19937 rng(20260730u);  // deterministic perturbation
  std::uniform_real_distribution<double> jitter(-0.3, 0.3);
  const double h = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i <= n; ++i)
    for (std::size_t j = 0; j <= n; ++j) {
      const bool interior = i > 0 && i < n && j > 0 && j < n;
      g.xn(i, j) = h * (static_cast<double>(i) +
                        (interior ? jitter(rng) : 0.0));
      g.rn(i, j) = h * (static_cast<double>(j) +
                        (interior ? jitter(rng) : 0.0));
    }
  g.compute_metrics(/*axisymmetric=*/false);

  auto gas =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.053));
  const double rho0 = 0.8, u0 = 450.0, v0 = 130.0, p0 = 4.0e4;
  const double e0 = gas->energy(rho0, p0);
  solvers::FvOptions opt;
  opt.startup_iters = 0;
  opt.viscous = viscous;
  opt.dirichlet = [=](double, double) {
    return std::array<double, 4>{rho0, u0, v0, e0};
  };
  opt.source = [](double, double) { return std::array<double, 4>{}; };
  solvers::EulerSolver solver(g, gas, opt);
  solver.initialize({rho0, u0, v0, p0});
  solver.advance(60);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(solver.primitive(i, j)[0], rho0, 1e-11 * rho0)
          << "(" << i << "," << j << ")";
      EXPECT_NEAR(solver.primitive(i, j)[1], u0, 1e-9 * u0)
          << "(" << i << "," << j << ")";
      EXPECT_NEAR(solver.primitive(i, j)[2], v0, 1e-9 * u0)
          << "(" << i << "," << j << ")";
      EXPECT_NEAR(solver.primitive(i, j)[3], e0, 1e-9 * e0)
          << "(" << i << "," << j << ")";
    }
}

TEST(verify_hooks, euler_freestream_preserved_on_perturbed_grid) {
  expect_freestream_preserved_on_perturbed_grid(/*viscous=*/false);
}

TEST(verify_hooks, ns_freestream_preserved_on_perturbed_grid) {
  expect_freestream_preserved_on_perturbed_grid(/*viscous=*/true);
}

TEST(verify_hooks, advance_split_rejects_source_hook) {
  const auto& db = gas::SpeciesDatabase::instance();
  gas::SpeciesSet set;
  set.db_index = {db.index("N2"), db.index("N")};
  set.names = {"N2", "N"};
  const chemistry::Mechanism mech(std::move(set), {});
  chemistry::IsochoricReactor reactor(mech);
  reactor.set_source_hook(
      [](double, std::span<const double>, std::span<double>) {});
  chemistry::IsochoricReactor::State st{{0.9, 0.1}, 2500.0};
  EXPECT_THROW(reactor.advance_split(st, 0.01, 1e-6),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// verify_consistency: cross-solver and cross-path agreement.
// ---------------------------------------------------------------------------

TEST(verify_consistency, vibronic_source_paths_agree) {
  // relax1d assembles its vibronic source through
  // chemistry_vibronic_source(c, T, Tv); the two-temperature reactor goes
  // through vibronic_source_from_rates(wdot_mole, Tv). A sign or units
  // divergence between the two paths would silently split the solver
  // hierarchy — pin their equality at a hot nonequilibrium state.
  const chemistry::Mechanism mech = chemistry::park_air11();
  const std::size_t ns = mech.n_species();
  std::vector<double> y(ns, 0.0);
  y[mech.species_set().local_index("N2")] = 0.70;
  y[mech.species_set().local_index("O2")] = 0.15;
  y[mech.species_set().local_index("NO")] = 0.05;
  y[mech.species_set().local_index("N")] = 0.06;
  y[mech.species_set().local_index("O")] = 0.04;
  const double rho = 0.02, t = 9000.0, tv = 6000.0;

  chemistry::Workspace ws;
  std::vector<double> wdot(ns);
  mech.mass_production_rates(rho, y, t, tv, wdot, ws);
  const double q_rates = mech.vibronic_source_from_rates(ws.wdot_mole, tv, ws);

  std::vector<double> c(ns);
  for (std::size_t s = 0; s < ns; ++s)
    c[s] = rho * y[s] / mech.species_set().species(s).molar_mass;
  const double q_direct = mech.chemistry_vibronic_source(c, t, tv);

  EXPECT_NEAR(q_rates, q_direct,
              1e-9 * std::max(std::fabs(q_rates), std::fabs(q_direct)));
}

TEST(verify_consistency, stagnation_ebl_vsl_heating_agree) {
  // Property-based fidelity-tier consistency at one flight condition:
  // the stagnation-line solver, the E+BL method (isentropic edge +
  // local-similarity BL), the VSL march and the PNS march are independent
  // discretizations of the same physics, evaluated near the stagnation
  // point. E+BL, VSL and PNS share one edge closure — modified-Newtonian
  // pressure and an isentropic expansion of the Rayleigh-pitot stagnation
  // state — so VSL agrees with the stagnation solver to within the
  // station's offset from the stagnation ray, and PNS's peak cannot exceed
  // it. A thin-shock-layer edge (ue = V cos(theta)) puts du/ds near V/R
  // instead of the Newtonian (V/R) sqrt(2 eps) and reads ~1.6x high. A
  // silent divergence of any tier (units, edge closure, transport) breaks
  // the band immediately.
  const auto eq = scenario::make_equilibrium(scenario::GasModelKind::kAir5,
                                             scenario::Planet::kEarth);
  const auto planet = scenario::make_planet(scenario::Planet::kEarth);
  const auto atmo = planet.atmosphere->at(71300.0);
  const double v_inf = 6740.0, rn = 1.0, t_wall = 1100.0;

  solvers::StagnationOptions sopt;
  sopt.include_radiation = false;  // compare convective heating only
  const solvers::StagnationLineSolver stag(eq, sopt);
  const solvers::StagnationConditions sc{
      v_inf, atmo.density, atmo.pressure, atmo.temperature, rn, t_wall};
  const auto sol = stag.solve(sc);
  const double q_stag = sol.q_conv;
  ASSERT_GT(q_stag, 1e4);

  // E+BL at near-stagnation stations of the hemisphere, modified-
  // Newtonian pressures from the same stagnation state (the E+BL
  // runner's closure, collapsed onto the sphere).
  const geometry::Sphere body(rn);
  const double q_dyn = 0.5 * atmo.density * v_inf * v_inf;
  const double cp_max = (sol.edge.p_stag - atmo.pressure) / q_dyn;
  std::vector<solvers::BlStation> stations;
  for (const double s_over_rn : {0.05, 0.15, 0.30, 0.50, 0.80}) {
    const auto pt = body.at(s_over_rn * rn);
    const double sth = std::sin(std::max(pt.theta, 0.02));
    stations.push_back({pt.s, solvers::metric_radius(pt.r, pt.s, rn),
                        atmo.pressure + cp_max * q_dyn * sth * sth});
  }
  solvers::BlOptions bopt;
  bopt.wall_temperature_K = t_wall;
  const solvers::BoundaryLayerSolver bl(eq, bopt);
  const auto blr = bl.solve(stations, sol.edge.stag_state, sol.edge.h_stag);
  const double q_ebl = blr.q_w.front();

  // VSL march over the same hemisphere from just off the stagnation ray.
  solvers::MarchOptions mopt;
  mopt.wall_temperature_K = t_wall;
  const solvers::VslSolver vsl(solvers::make_equilibrium_props(eq), mopt);
  const double arc = body.total_arc_length();
  const auto march = vsl.solve(
      body, {v_inf, atmo.density, atmo.pressure, atmo.temperature},
      0.03 * arc, 0.6 * arc, 10);
  const double q_vsl = march.front().q_w;

  // PNS over the Orbiter's equivalent hyperboloid at the same freestream
  // and wall temperature, against a stagnation-line solve at that
  // hyperboloid's nose radius.
  const scenario::Case* pns_case =
      scenario::find_scenario("orbiter_windward_pns");
  ASSERT_NE(pns_case, nullptr);
  ASSERT_EQ(pns_case->condition.velocity_mps, v_inf);
  ASSERT_EQ(pns_case->condition.altitude_m, 71300.0);
  ASSERT_EQ(pns_case->wall_temperature_K, t_wall);
  const double rn_pns = geometry::OrbiterGeometry()
                            .equivalent_hyperboloid(
                                pns_case->angle_of_attack_rad)
                            .nose_radius();
  const double q_stag_pns =
      stag.solve({v_inf, atmo.density, atmo.pressure, atmo.temperature,
                  rn_pns, t_wall})
          .q_conv;
  const double q_pns = scenario::run_case(*pns_case).metric("peak_q_w");

  std::printf("cross-solver heating: q_stag=%.4g q_ebl=%.4g q_vsl=%.4g "
              "(ebl/stag=%.3f vsl/stag=%.3f); R_n=%.2f m: q_stag=%.4g "
              "q_pns=%.4g (pns/stag=%.3f)\n",
              q_stag, q_ebl, q_vsl, q_ebl / q_stag, q_vsl / q_stag, rn_pns,
              q_stag_pns, q_pns, q_pns / q_stag_pns);
  // Measured: ebl/stag ~ 0.74 (first station at s = 0.05 R_n), vsl/stag
  // ~ 1.01 (first station at s = 0.03 x quarter arc), pns/stag ~ 0.87
  // (peak at the first station, x/L = 1/256, s ~ 0.44 R_n).
  EXPECT_NEAR(q_ebl / q_stag, 0.85, 0.25)
      << "q_stag=" << q_stag << " q_ebl=" << q_ebl;
  EXPECT_NEAR(q_vsl / q_stag, 1.0, 0.15)
      << "q_stag=" << q_stag << " q_vsl=" << q_vsl;
  EXPECT_LE(q_pns / q_stag_pns, 1.05)
      << "q_stag=" << q_stag_pns << " q_pns=" << q_pns;
}

}  // namespace
