#include "solvers/relax1d/relax1d.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"
#include "numerics/ode.hpp"
#include "numerics/roots.hpp"

namespace cat::solvers {

using gas::constants::kRu;

PostShockRelaxation::PostShockRelaxation(const chemistry::Mechanism& mech,
                                         Options opt)
    : mech_(mech), ttg_(mech.species_set()), opt_(opt) {
  CAT_REQUIRE(opt_.x_max_m > 0.0 && opt_.n_samples >= 8, "bad options");
}

namespace {
/// Gas constants of the heavy-particle and electron partial mixtures.
struct SplitR {
  double r_heavy, r_electron;
};
SplitR split_gas_constant(const gas::SpeciesSet& set,
                          std::span<const double> y) {
  SplitR r{0.0, 0.0};
  for (std::size_t s = 0; s < set.size(); ++s) {
    const gas::Species& sp = set.species(s);
    const double rs = y[s] * kRu / sp.molar_mass;
    if (sp.is_electron()) {
      r.r_electron += rs;
    } else {
      r.r_heavy += rs;
    }
  }
  return r;
}
}  // namespace

PostShockRelaxation::Invariants PostShockRelaxation::upstream_invariants(
    const ShockTubeFreestream& fs, std::span<const double> y) const {
  CAT_REQUIRE(fs.pressure > 0.0 && fs.temperature > 0.0, "bad freestream");
  const auto [rh, re] = split_gas_constant(mech_.species_set(), y);
  const double rho1 = fs.pressure / ((rh + re) * fs.temperature);
  return {.m_flux = rho1 * fs.velocity,
          .p_flux = fs.pressure + rho1 * fs.velocity * fs.velocity,
          .h_total = ttg_.energy(y, fs.temperature, fs.temperature) +
                     fs.pressure / rho1 + 0.5 * fs.velocity * fs.velocity};
}

FrozenJump PostShockRelaxation::frozen_jump(
    const ShockTubeFreestream& fs, std::span<const double> y) const {
  // The frozen jump is the subsonic state with the upstream composition
  // and the vibronic pool still at T1: the closed-form recovery at x = 0.
  const Invariants inv = upstream_invariants(fs, y);
  const double t1 = fs.temperature;
  const FlowState st =
      recover_state_2t(inv, y, ttg_.vibronic_energy(y, t1), t1);
  const double ratio = fs.velocity / st.u;
  if (!(ratio > 1.0))
    throw SolverError("relax1d: no shock, the upstream flow is subsonic");
  return {.rho = st.rho, .u = st.u, .p = st.p, .t = st.t,
          .density_ratio = ratio};
}

PostShockRelaxation::FlowState PostShockRelaxation::recover_state_2t(
    const Invariants& inv, std::span<const double> y, double ev,
    double tv) const {
  // With the vibronic pool frozen, h(T) = E0(y) + (cv_tr + R_h) T + ev +
  // R_e Tv. The EOS p/rho = R_h T + R_e Tv with rho = m/u and p = P - m u
  // gives T(u); the energy invariant then reads  a u^2 - b u + c = 0.
  const auto [rh, re] = split_gas_constant(mech_.species_set(), y);
  const double g = (ttg_.trans_rot_cv(y) + rh) / rh;  // cp_tr / R_h
  const double a = g - 0.5;
  const double b = g * inv.p_flux / inv.m_flux;
  const double c =
      inv.h_total - ttg_.reference_energy(y) - ev + (g - 1.0) * re * tv;
  const double disc = b * b - 4.0 * a * c;
  if (!(disc >= 0.0))
    throw SolverError("relax1d: no state matches the flux invariants");
  FlowState st;
  st.u = 2.0 * c / (b + std::sqrt(disc));  // subsonic (post-shock) root
  st.rho = inv.m_flux / st.u;
  st.p = inv.p_flux - inv.m_flux * st.u;
  st.t = (st.p / st.rho - re * tv) / rh;
  if (!(st.u > 0.0 && st.t >= 50.0 && st.t <= 1.0e5))
    throw SolverError("relax1d: recovered temperature outside [50, 1e5] K");
  return st;
}

PostShockRelaxation::FlowState PostShockRelaxation::recover_state_1t(
    const Invariants& inv, std::span<const double> y, double rho_jump) const {
  const auto [rh, re] = split_gas_constant(mech_.species_set(), y);
  const double r_mix = rh + re;
  const double cv_tr = ttg_.trans_rot_cv(y);

  // h(T, T) is nonlinear (vibration at T): Newton from a fixed start.
  auto t_of_h = [&](double h_target) {
    double t = 5000.0;
    // cat-lint: converges-by-construction (clamped Newton on a smooth,
    // monotone h(T); the result only seeds the outer density bisection's
    // residual, which tolerates an inexact inversion)
    for (int it = 0; it < 80; ++it) {
      const double h = ttg_.energy(y, t, t) + r_mix * t;
      const double cp = cv_tr + ttg_.vibronic_cv(y, t) + r_mix;
      const double tn = std::clamp(t - (h - h_target) / cp, 50.0, 100000.0);
      if (std::fabs(tn - t) < 1e-10 * t) return tn;
      t = tn;
    }
    return t;
  };

  auto resid = [&](double rho) {
    const double u = inv.m_flux / rho;
    const double p_mom = inv.p_flux - inv.m_flux * u;
    return rho * r_mix * t_of_h(inv.h_total - 0.5 * u * u) - p_mom;
  };

  // Bracket around the frozen-jump density (subsonic post-shock branch is
  // locally monotone); expand until a sign change is found.
  double lo = rho_jump * 0.7, hi = rho_jump * 1.4;
  double flo = resid(lo), fhi = resid(hi);
  for (int k = 0; k < 60 && flo * fhi > 0.0; ++k) {
    lo *= 0.9;
    hi *= 1.1;
    flo = resid(lo);
    fhi = resid(hi);
  }
  if (flo * fhi > 0.0)
    throw SolverError("relax1d: state recovery lost its bracket");
  const double rho = numerics::brent(resid, lo, hi, {.tol = 1e-13});

  FlowState st;
  st.rho = rho;
  st.u = inv.m_flux / rho;
  st.p = inv.p_flux - inv.m_flux * st.u;
  st.t = t_of_h(inv.h_total - 0.5 * st.u * st.u);
  return st;
}

RelaxationProfile PostShockRelaxation::solve(
    const ShockTubeFreestream& fs, std::span<const double> y1) const {
  const std::size_t ns = mech_.n_species();
  CAT_REQUIRE(y1.size() == ns, "composition size mismatch");

  const FrozenJump jump = frozen_jump(fs, y1);
  const Invariants inv = upstream_invariants(fs, y1);
  const bool two_t = opt_.two_temperature;

  // Solve-local scratch, sized once: the RHS allocates nothing.
  // cat-lint: allow-alloc (per-solve setup, independent of the step count)
  std::vector<double> y(ns), wdot(ns), x_mole(ns);
  chemistry::Workspace chem_ws;
  numerics::StiffWorkspace stiff_ws;

  // Marching state u = [y_0..y_{ns-1}, ev]; ev is tracked even in 1-T mode
  // (then slaved, derivative unused). Fills y with the cleaned composition
  // and returns the recovered flow state with its Tv.
  struct Station {
    FlowState st;
    double tv;
  };
  auto recover = [&](std::span<const double> u) {
    std::copy(u.begin(), u.begin() + ns, y.begin());
    gas::Mixture::clean_mass_fractions(y);
    if (!two_t) {
      const FlowState st = recover_state_1t(inv, y, jump.rho);
      return Station{st, st.t};
    }
    const double tv = ttg_.tv_from_vibronic_energy(y, u[ns]);
    return Station{recover_state_2t(inv, y, u[ns], tv), tv};
  };

  numerics::OdeRhs rhs = [&](double x, std::span<const double> u,
                             std::span<double> du) {
    const auto [st, tv] = recover(u);
    // Ablation hook: disable Park's sqrt(T Tv) by feeding Tv = T to the
    // kinetics while keeping the true Tv in the relaxation source.
    const double tv_chem = opt_.park_sqrt_ttv ? tv : st.t;
    mech_.mass_production_rates(st.rho, y, st.t, tv_chem, wdot, chem_ws);
    for (std::size_t s = 0; s < ns; ++s) du[s] = wdot[s] / inv.m_flux;
    if (two_t) {
      const double q_lt =
          ttg_.landau_teller_source(st.rho, y, st.t, tv, st.p, x_mole);
      // The rate kernel left its molar rates in chem_ws.wdot_mole.
      const double q_chem =
          mech_.vibronic_source_from_rates(chem_ws.wdot_mole, tv_chem, chem_ws);
      du[ns] = (q_lt + q_chem) / inv.m_flux;
    } else {
      du[ns] = 0.0;
    }
    if (opt_.source) opt_.source(x, u, du);
  };

  // cat-lint: allow-alloc (per-solve setup: the marching state)
  std::vector<double> state(ns + 1);
  std::copy(y1.begin(), y1.end(), state.begin());
  state[ns] = ttg_.vibronic_energy(y1, fs.temperature);

  RelaxationProfile prof;
  prof.n_species = ns;
  prof.y.assign(ns, {});  // cat-lint: allow-alloc (per-solve setup)
  // cat-lint: allow-alloc (one entry per stored station, not per step)
  auto store = [&](double x, std::span<const double> u) {
    const auto [st, tv] = recover(u);
    prof.x.push_back(x);
    prof.t.push_back(st.t);
    prof.tv.push_back(tv);
    prof.rho.push_back(st.rho);
    prof.u.push_back(st.u);
    prof.p.push_back(st.p);
    for (std::size_t s = 0; s < ns; ++s) prof.y[s].push_back(y[s]);
  };

  store(0.0, state);
  numerics::StiffIntegrator integ(rhs, nullptr,
                                  {.rel_tol = 1e-7,
                                   .abs_tol = 1e-13,
                                   .h_initial = opt_.x_first_m * 1e-3,
                                   .max_steps = 4'000'000});
  double x_prev = 0.0;
  for (std::size_t k = 0; k < opt_.n_samples; ++k) {
    const double frac =
        static_cast<double>(k) / static_cast<double>(opt_.n_samples - 1);
    const double x_next =
        opt_.x_first_m * std::pow(opt_.x_max_m / opt_.x_first_m, frac);
    if (x_next <= x_prev) continue;
    integ.integrate(x_prev, x_next, std::span<double>(state), stiff_ws);
    store(x_next, state);
    x_prev = x_next;
  }
  return prof;
}

}  // namespace cat::solvers
