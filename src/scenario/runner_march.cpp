#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "geometry/body.hpp"
#include "scenario/runner_detail.hpp"
#include "solvers/bl/boundary_layer.hpp"
#include "solvers/pns/pns.hpp"
#include "solvers/vsl/vsl.hpp"

/// Runner adapters for the marching solver families: VSL shock-layer
/// marching over sphere-cones, PNS windward-plane marching over the
/// Orbiter analog, and the Euler + boundary-layer (E+BL) two-step method.

namespace cat::scenario {
namespace {

using detail::make_result;
using detail::seconds_since;

solvers::MarchOptions march_options(const Case& c) {
  solvers::MarchOptions mopt;
  mopt.wall_temperature_K = c.wall_temperature_K;
  mopt.streamwise_order = c.streamwise_order;
  if (c.fidelity == Fidelity::kSmoke) {
    mopt.n_eta = 100;
    mopt.n_table = 28;
  }
  return mopt;
}

solvers::MarchFreestream march_freestream(const Case& c,
                                          const PlanetModel& planet) {
  const auto sc = detail::stagnation_conditions(c, planet);
  return {sc.velocity, sc.rho_inf, sc.p_inf, sc.t_inf};
}

// ---------------------------------------------------------------------------
// VSL: viscous shock-layer march over an axisymmetric sphere-cone built
// from the case vehicle (nose radius + cone half-angle).
// ---------------------------------------------------------------------------
class VslRunner final : public Runner {
 public:
  SolverFamily family() const override { return SolverFamily::kVslMarch; }

  CaseResult run(const Case& c, const RunOptions&) const override {
    const auto t0 = detail::Clock::now();
    const auto planet = make_planet(c.planet);
    const auto eq = make_equilibrium(c.gas, c.planet);
    const solvers::VslSolver vsl(solvers::make_equilibrium_props(eq),
                                 march_options(c));

    const double rn = c.vehicle.nose_radius;
    CAT_REQUIRE(rn > 0.0, "VSL case needs a positive nose radius");
    const double length = c.body_length_m > 0.0 ? c.body_length_m : 4.0 * rn;
    const geometry::SphereCone body(rn, c.cone_half_angle_rad, length);
    const auto fs = march_freestream(c, planet);
    const auto res = vsl.solve(body, fs, 0.02 * body.total_arc_length(),
                               0.9 * body.total_arc_length(), c.n_stations);

    CaseResult r = make_result(c);
    r.table = io::Table(c.title.empty() ? c.name : c.title);
    r.table.set_columns({"s_m", "q_w_Wcm2", "cf", "p_e_kPa", "t_e_K"});
    double q_peak = 0.0;
    for (const auto& st : res) {
      r.table.add_row(
          {st.s, st.q_w / 1e4, st.cf, st.p_e / 1000.0, st.t_e});
      q_peak = std::max(q_peak, st.q_w);
    }
    r.metrics = {{"peak_q_w", q_peak, "W/m^2"},
                 {"aft_q_w", res.back().q_w, "W/m^2"},
                 {"n_stations", static_cast<double>(res.size()), "-"}};
    r.elapsed_seconds = seconds_since(t0);
    return r;
  }
};

// ---------------------------------------------------------------------------
// PNS: windward-plane march over the Orbiter equivalent hyperboloid
// (Fig. 6), equilibrium air or the ideal-gas comparison model.
// ---------------------------------------------------------------------------
class PnsRunner final : public Runner {
 public:
  SolverFamily family() const override { return SolverFamily::kPnsMarch; }

  CaseResult run(const Case& c, const RunOptions&) const override {
    const auto t0 = detail::Clock::now();
    const auto planet = make_planet(c.planet);
    const geometry::OrbiterGeometry orb;
    const auto fs = march_freestream(c, planet);

    const auto pns = [&](solvers::PropertyProvider props) {
      return solvers::PnsSolver(std::move(props), march_options(c))
          .solve(orb, fs, c.angle_of_attack_rad, c.n_stations);
    };
    std::vector<solvers::PnsStation> march;
    if (c.gas == GasModelKind::kIdealGamma) {
      march = pns(solvers::make_ideal_props(c.ideal_gamma, 287.053));
    } else {
      const auto eq = make_equilibrium(c.gas, c.planet);
      march = pns(solvers::make_equilibrium_props(eq));
    }

    CaseResult r = make_result(c);
    r.table = io::Table(c.title.empty() ? c.name : c.title);
    r.table.set_columns({"x_over_l", "q_w_Wcm2", "p_e_kPa", "ue_kms"});
    double q_peak = 0.0;
    for (const auto& st : march) {
      r.table.add_row({st.x_over_l, st.q_w / 1e4, st.p_e / 1000.0,
                       st.ue / 1000.0});
      q_peak = std::max(q_peak, st.q_w);
    }
    r.metrics = {{"peak_q_w", q_peak, "W/m^2"},
                 {"aft_q_w", march.back().q_w, "W/m^2"},
                 {"n_stations", static_cast<double>(march.size()), "-"}};
    r.elapsed_seconds = seconds_since(t0);
    return r;
  }
};

// ---------------------------------------------------------------------------
// E+BL: modified-Newtonian surface pressures on the Orbiter equivalent
// hyperboloid + local-similarity boundary layer (Fig. 4's solution
// method), exactly the pipeline the orbiter example used to hand-wire.
// ---------------------------------------------------------------------------
class EulerBlRunner final : public Runner {
 public:
  SolverFamily family() const override {
    return SolverFamily::kEulerBoundaryLayer;
  }

  CaseResult run(const Case& c, const RunOptions&) const override {
    const auto t0 = detail::Clock::now();
    CAT_REQUIRE(c.n_stations >= 2, "E+BL march needs at least 2 stations");
    const auto planet = make_planet(c.planet);
    const auto eq = make_equilibrium(c.gas, c.planet);
    const geometry::OrbiterGeometry orb;
    const geometry::Hyperboloid body =
        orb.equivalent_hyperboloid(c.angle_of_attack_rad);

    Case point = c;
    point.vehicle.nose_radius = body.nose_radius();
    const auto sc = detail::stagnation_conditions(point, planet);
    const solvers::StagnationLineSolver stag(eq,
                                             detail::stagnation_options(c));
    const auto edge = stag.shock_layer_edge(sc);
    const double q_dyn = 0.5 * sc.rho_inf * sc.velocity * sc.velocity;
    const double cp_max = (edge.p_stag - sc.p_inf) / q_dyn;

    // Stations uniform in x/L; surface pressure from modified Newtonian.
    std::vector<solvers::BlStation> stations;
    std::vector<double> x_over_l;
    for (std::size_t k = 0; k < c.n_stations; ++k) {
      const double xl = 0.05 + 0.90 * static_cast<double>(k) /
                                   static_cast<double>(c.n_stations - 1);
      const auto pt = body.at(body.s_of_x(xl * orb.length));
      const double sth = std::sin(std::max(pt.theta, 0.02));
      stations.push_back(
          {pt.s, solvers::metric_radius(pt.r, pt.s, body.nose_radius()),
           sc.p_inf + cp_max * q_dyn * sth * sth});
      x_over_l.push_back(xl);
    }
    solvers::BlOptions bopt;
    bopt.wall_temperature_K = c.wall_temperature_K;
    bopt.streamwise_order = c.streamwise_order;
    if (c.fidelity == Fidelity::kSmoke) {
      bopt.n_eta = 120;
      bopt.n_table = 28;
    }
    const solvers::BoundaryLayerSolver bl(eq, bopt);
    const auto blr = bl.solve(stations, edge.stag_state, edge.h_stag);

    CaseResult r = make_result(c);
    r.table = io::Table(c.title.empty() ? c.name : c.title);
    r.table.set_columns({"x_over_l", "q_w_Wcm2", "ue_kms", "te_K"});
    double q_peak = 0.0;
    for (std::size_t k = 0; k < blr.s.size(); ++k) {
      r.table.add_row({x_over_l[k], blr.q_w[k] / 1e4, blr.ue[k] / 1000.0,
                       blr.te[k]});
      q_peak = std::max(q_peak, blr.q_w[k]);
    }
    r.metrics = {{"peak_q_w", q_peak, "W/m^2"},
                 {"aft_q_w", blr.q_w.back(), "W/m^2"},
                 {"p_stag", edge.p_stag, "Pa"},
                 {"n_stations", static_cast<double>(blr.s.size()), "-"}};
    r.elapsed_seconds = seconds_since(t0);
    return r;
  }
};

}  // namespace

const Runner& march_runner(SolverFamily family) {
  static const VslRunner vsl;
  static const PnsRunner pns;
  static const EulerBlRunner ebl;
  switch (family) {
    case SolverFamily::kVslMarch: return vsl;
    case SolverFamily::kPnsMarch: return pns;
    case SolverFamily::kEulerBoundaryLayer: return ebl;
    default:
      throw std::invalid_argument("march_runner: not a marching family");
  }
}

}  // namespace cat::scenario
