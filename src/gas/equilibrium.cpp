#include "gas/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"
#include "numerics/linalg.hpp"

namespace cat::gas {

using constants::kPressureRef;
using constants::kRu;

namespace {

constexpr std::size_t kMaxSpecies = 32;  // the species database holds 25
constexpr std::size_t kMaxUnknowns = kNumElements + 1;  // potentials + ln N

/// Cold inversions start here: equilibrium at ~6000 K converges from a cold
/// start for every CAT mixture (the continuation path walks from it too).
constexpr double kColdStartT = 6000.0;

/// One probe of an inversion: residual and its slope in T.
struct Probe {
  double f, dfdt;
};

/// Temperature window of an inversion. A root beyond an end returns that
/// end's state (clamp) or throws.
struct Bracket {
  double lo, hi;
  bool clamp_lo, clamp_hi;
};

/// The safeguarded Newton on temperature behind every inversion. \p probe
/// evaluates f(T), which rises with T, and leaves that state in the
/// caller's workspace; the returned temperature is always the last one
/// probed. The iteration keeps a sign bracket and bisects whenever a Newton
/// step leaves it or stops halving; a step beyond a bracket end that has
/// not been probed probes that end instead, so a clamp result is always the
/// state at the end itself.
template <class ProbeFn>
double newton_on_t(ProbeFn&& probe, double t, const Bracket& br,
                   const char* what) {
  double lo = br.lo, hi = br.hi;
  bool lo_known = false, hi_known = false;
  double dt_old = hi - lo, dt = dt_old;
  t = std::clamp(t, lo, hi);
  const int max_iter = 100;
  for (int iter = 0; iter < max_iter; ++iter) {
    const Probe r = probe(t);
    if (r.f == 0.0) return t;
    if (r.f < 0.0) {
      lo = t;
      lo_known = true;
    } else {
      hi = t;
      hi_known = true;
    }
    const bool beyond_lo = t == br.lo && r.f > 0.0;
    const bool beyond_hi = t == br.hi && r.f < 0.0;
    if (beyond_lo || beyond_hi) {
      if (beyond_lo ? br.clamp_lo : br.clamp_hi) return t;
      throw SolverError(std::string(what) + ": target beyond " +
                        std::to_string(t) + " K");
    }
    const double tol = 1e-11 * t;
    const double newton = t - r.f / r.dfdt;
    dt_old = dt;
    dt = newton - t;
    if (r.dfdt > 0.0 && std::fabs(dt) <= tol) return t;
    const bool inside = r.dfdt > 0.0 && newton > lo && newton < hi;
    double next = newton;
    if (!inside) {
      if (r.f > 0.0 && !lo_known && newton <= br.lo) {
        next = br.lo;
      } else if (r.f < 0.0 && !hi_known && newton >= br.hi) {
        next = br.hi;
      } else if (lo_known && hi_known) {
        next = 0.5 * (lo + hi);
      } else {
        next = 0.5 * (t + (r.f > 0.0 ? lo : hi));
      }
    } else if (lo_known && hi_known &&
               std::fabs(dt) > 0.5 * std::fabs(dt_old)) {
      next = 0.5 * (lo + hi);  // Newton is not converging fast enough
    }
    if (lo_known && hi_known && hi - lo <= tol) return t;
    dt = next - t;
    t = next;
  }
  throw SolverError(std::string(what) + ": temperature Newton failed to "
                    "converge after " + std::to_string(max_iter) +
                    " probes");
}

}  // namespace

/// Call-local scratch: lives on the stack of one public call and carries
/// the element potentials from one probe of an inversion to the next.
struct EquilibriumSolver::Workspace {
  // Species thermodynamics at thermo_t (standard state, p_ref).
  double thermo_t = -1.0;
  std::array<double, kMaxSpecies> g_rt{};  ///< g/(Ru T)
  std::array<double, kMaxSpecies> h{};     ///< [J/mol]
  std::array<double, kMaxSpecies> cp{};    ///< [J/(mol K)]
  std::array<double, kMaxSpecies> s0{};    ///< [J/(mol K)]
  // Gibbs Newton state.
  std::array<double, kMaxSpecies> x{}, best_x{};
  std::array<double, kMaxUnknowns> pot{}, best_pot{};  ///< pi..., ln N
  std::array<double, kMaxUnknowns * kMaxUnknowns> jac{}, lu{};
  std::array<std::size_t, kMaxUnknowns> piv{};
  bool warm = false;  ///< pot holds the potentials of a converged state
  double mbar = 0.0;  ///< molar mass of the converged state [kg/mol]
  // Potential sensitivities at (slope_t, slope_log_p), set by slopes():
  // the next probe's warm start is extrapolated along them.
  bool has_slopes = false;
  double slope_t = 0.0, slope_log_p = 0.0;
  std::array<double, kMaxUnknowns> dpot_dt{}, dpot_dlnp{};
};

struct EquilibriumSolver::Slopes {
  double h;         ///< mixture enthalpy [J/kg]
  double cp;        ///< dh/dT at fixed p [J/(kg K)]
  double dh_dlnp;   ///< dh/dln p at fixed T [J/kg]
  double du_dt;     ///< d ln N/dT at fixed p [1/K]
  double du_dlnp;   ///< d ln N/dln p at fixed T
};

EquilibriumSolver::EquilibriumSolver(SpeciesSet set,
                                     std::array<double, kNumElements> b)
    : mix_(std::move(set)), b_(b) {
  CAT_REQUIRE(mix_.n_species() <= kMaxSpecies,
              "species set larger than the equilibrium workspace");
  // Species containing an element of zero abundance are pinned to zero
  // (their mole fraction would be exactly zero at the optimum, but a free
  // potential for that element would never converge).
  const std::size_t q = static_cast<std::size_t>(Element::kCharge);
  enabled_.assign(mix_.n_species(), true);
  for (std::size_t s = 0; s < mix_.n_species(); ++s) {
    for (std::size_t e = 0; e < kNumElements; ++e) {
      if (e == q) continue;
      if (mix_.set().species(s).composition[e] != 0 && b_[e] == 0.0)
        enabled_[s] = false;
    }
  }
  // An element is active when some *enabled* species contains it. The
  // charge pseudo-element is active when ions/electrons survive even
  // though its abundance is zero (neutrality).
  for (std::size_t e = 0; e < kNumElements; ++e) {
    bool present = false;
    for (std::size_t s = 0; s < mix_.n_species(); ++s)
      present |= enabled_[s] && (mix_.set().species(s).composition[e] != 0);
    if (present) {
      active_elements_.push_back(e);
    } else {
      CAT_REQUIRE(b_[e] == 0.0,
                  "element abundance given for element absent from set");
    }
  }
  CAT_REQUIRE(!active_elements_.empty(), "no active elements");
  const std::size_t ns = mix_.n_species();
  stoich_.resize(active_elements_.size() * ns);
  b_scale_ = 0.0;
  for (std::size_t i = 0; i < active_elements_.size(); ++i) {
    b_scale_ = std::max(b_scale_, b_[active_elements_[i]]);
    for (std::size_t s = 0; s < ns; ++s)
      stoich_[i * ns + s] =
          mix_.set().species(s).composition[active_elements_[i]];
  }
  CAT_REQUIRE(b_scale_ > 0.0, "zero elemental abundance");
}

EquilibriumSolver::EquilibriumSolver(
    SpeciesSet set,
    const std::vector<std::pair<std::string, double>>& cold)
    : EquilibriumSolver(std::move(set), element_moles_per_kg(cold)) {}

bool EquilibriumSolver::seed(Workspace& ws,
                             const EquilibriumResult* near) const {
  const std::size_t ne = active_elements_.size();
  if (near == nullptr || near->pi.size() != ne || !std::isfinite(near->ln_n))
    return false;
  std::copy(near->pi.begin(), near->pi.end(), ws.pot.begin());
  ws.pot[ne] = near->ln_n;
  ws.warm = true;
  return true;
}

void EquilibriumSolver::load_thermo(Workspace& ws, double t) const {
  if (ws.thermo_t == t) return;
  for (std::size_t s = 0; s < mix_.n_species(); ++s) {
    const ThermoEval ev = evaluate(mix_.set().species(s), t, kPressureRef);
    ws.g_rt[s] = ev.g / (kRu * t);
    ws.h[s] = ev.h;
    ws.cp[s] = ev.cp;
    ws.s0[s] = ev.s;
  }
  ws.thermo_t = t;
}

void EquilibriumSolver::converge(Workspace& ws, double t, double p) const {
  CAT_REQUIRE(t > 0.0 && p > 0.0, "state must be positive");
  load_thermo(ws, t);
  const std::size_t ns = mix_.n_species();
  const std::size_t ne = active_elements_.size();
  const std::size_t nu = ne + 1;
  const double* a = stoich_.data();

  const double log_p = std::log(p / kPressureRef);

  // Unknowns: pot[0..ne-1] (element potentials / RuT), pot[ne] = u =
  // ln(total moles/kg).
  double* pi = ws.pot.data();
  double& u = ws.pot[ne];
  std::array<double, kMaxUnknowns> res{}, step{};
  double best_rnorm = 1e300;

  const int max_iter = 300;
  for (int iter = 0; iter < max_iter; ++iter) {
    const double n_total = std::exp(u);
    for (std::size_t s = 0; s < ns; ++s) {
      if (!enabled_[s]) {
        ws.x[s] = 0.0;
        continue;
      }
      // mu0 = g_s(T, p_ref)/(Ru T) + ln(p/p_ref): standard-state chemical
      // potential in Ru*T units at the mixture pressure.
      double zz = -(ws.g_rt[s] + log_p);
      for (std::size_t i = 0; i < ne; ++i) zz += a[i * ns + s] * pi[i];
      // Overflow guard; step limiting keeps genuine solutions far below.
      ws.x[s] = std::exp(std::min(zz, 200.0));
    }

    // Residuals.
    double rnorm = 0.0;
    for (std::size_t i = 0; i < ne; ++i) {
      double acc = 0.0;
      for (std::size_t s = 0; s < ns; ++s) acc += a[i * ns + s] * ws.x[s];
      res[i] = (n_total * acc - b_[active_elements_[i]]) / b_scale_;
      rnorm = std::max(rnorm, std::fabs(res[i]));
    }
    {
      double sx = 0.0;
      for (std::size_t s = 0; s < ns; ++s) sx += ws.x[s];
      res[ne] = sx - 1.0;
      rnorm = std::max(rnorm, std::fabs(res[ne]));
    }
    if (rnorm < best_rnorm) {
      best_rnorm = rnorm;
      ws.best_x = ws.x;
      ws.best_pot = ws.pot;
    }
    if (rnorm < 1e-12) break;

    if (!factor_jacobian(ws)) {
      for (std::size_t i = 0; i < ne; ++i) pi[i] += 1e-3;
      continue;
    }
    numerics::lu_solve_inplace(std::span(ws.lu).first(nu * nu), nu,
                               std::span(ws.piv).first(nu),
                               std::span(res).first(nu), step);
    // Damped Newton: cap the step so exp() stays controlled.
    double smax = 0.0;
    for (std::size_t i = 0; i < nu; ++i) smax = std::max(smax, std::fabs(res[i]));
    const double damp = smax > 2.0 ? 2.0 / smax : 1.0;
    for (std::size_t i = 0; i < ne; ++i) pi[i] -= damp * res[i];
    u -= damp * res[ne];
    u = std::clamp(u, std::log(b_scale_ * 1e-6), std::log(b_scale_ * 1e6));
  }
  // A stalled Newton (typically a residual plateau along a numerically null
  // potential direction at low temperature) keeps its best iterate when it
  // already satisfies a slightly looser engineering tolerance.
  if (!(best_rnorm < 1e-8))
    throw SolverError("EquilibriumSolver: Newton failed to converge");
  if (best_rnorm > 1e-12) {
    ws.x = ws.best_x;
    ws.pot = ws.best_pot;
  }
  // Normalize away residual drift.
  double sx = 0.0;
  for (std::size_t s = 0; s < ns; ++s) sx += ws.x[s];
  ws.mbar = 0.0;
  for (std::size_t s = 0; s < ns; ++s) {
    ws.x[s] /= sx;
    ws.mbar += ws.x[s] * mix_.set().species(s).molar_mass;
  }
  ws.warm = true;
}

void EquilibriumSolver::compose(Workspace& ws, double t, double p) const {
  const std::size_t ne = active_elements_.size();
  if (ws.warm && ws.has_slopes) {
    const double dt = t - ws.slope_t;
    const double dlnp = std::log(p / kPressureRef) - ws.slope_log_p;
    for (std::size_t i = 0; i <= ne; ++i)
      ws.pot[i] += dt * ws.dpot_dt[i] + dlnp * ws.dpot_dlnp[i];
  }
  ws.has_slopes = false;
  if (ws.warm) {
    try {
      converge(ws, t, p);
      return;
    } catch (const SolverError&) {
      // fall through to the cold path
    }
  }
  const auto cold_start = [&] {
    std::fill_n(ws.pot.begin(), ne, 0.0);
    ws.pot[ne] = std::log(2.0 * b_scale_);
  };
  cold_start();
  try {
    converge(ws, t, p);
  } catch (const SolverError&) {
    // Continuation in temperature: walk from kColdStartT toward the
    // target, reusing the element potentials as warm starts.
    cold_start();
    converge(ws, kColdStartT, p);
    const int steps = 40;
    for (int i = 1; i <= steps; ++i) {
      const double frac = static_cast<double>(i) / steps;
      converge(ws, kColdStartT * std::pow(t / kColdStartT, frac), p);
    }
    converge(ws, t, p);
  }
}

bool EquilibriumSolver::factor_jacobian(Workspace& ws) const {
  const std::size_t ns = mix_.n_species();
  const std::size_t ne = active_elements_.size();
  const std::size_t nu = ne + 1;
  const double* a = stoich_.data();
  const double n_total = std::exp(ws.pot[ne]);
  for (std::size_t i = 0; i < ne; ++i) {
    for (std::size_t j = 0; j < ne; ++j) {
      double acc = 0.0;
      for (std::size_t s = 0; s < ns; ++s)
        acc += a[i * ns + s] * a[j * ns + s] * ws.x[s];
      ws.jac[i * nu + j] = n_total * acc / b_scale_;
    }
    double acc = 0.0;
    for (std::size_t s = 0; s < ns; ++s) acc += a[i * ns + s] * ws.x[s];
    ws.jac[i * nu + ne] = n_total * acc / b_scale_;  // d/d(lnN)
    ws.jac[ne * nu + i] = acc;
  }
  ws.jac[ne * nu + ne] = 0.0;

  const auto lu = std::span(ws.lu).first(nu * nu);
  const auto piv = std::span(ws.piv).first(nu);
  std::copy(ws.jac.begin(), ws.jac.begin() + lu.size(), lu.begin());
  if (numerics::try_lu_factor_inplace(lu, nu, piv)) return true;
  // Singular Jacobian: at low temperature the trace species that pin
  // individual element potentials underflow, leaving a null direction
  // (only combinations like pi_C + 4 pi_H are determined). A ridge
  // selects the minimum-norm Newton step in that case.
  double dmax = 0.0;
  for (std::size_t i = 0; i < nu; ++i)
    dmax = std::max(dmax, std::fabs(ws.jac[i * nu + i]));
  std::copy(ws.jac.begin(), ws.jac.begin() + lu.size(), lu.begin());
  for (std::size_t i = 0; i < nu; ++i) lu[i * nu + i] += 1e-10 * (dmax + 1e-30);
  return numerics::try_lu_factor_inplace(lu, nu, piv);
}

EquilibriumSolver::Slopes EquilibriumSolver::slopes(Workspace& ws, double t,
                                                    double p) const {
  // Differentiating the converged Newton residuals R(pi, u; T, ln p) = 0
  // gives J d(pi, u) = -dR, solved with the Gibbs Newton Jacobian
  // assembled at the converged state. With z_s = ln x_s,
  //   dz_s/dT    = h_s/(Ru T^2) + sum_i a_is dpi_i/dT
  //   dz_s/dln p = -1 + sum_i a_is dpi_i/dln p,
  // and the reaction terms follow from d(N x_s) = N x_s (du + dz_s).
  const std::size_t ns = mix_.n_species();
  const std::size_t ne = active_elements_.size();
  const std::size_t nu = ne + 1;
  const double* a = stoich_.data();
  const double n_mix = 1.0 / ws.mbar;
  double xh = 0.0;
  for (std::size_t s = 0; s < ns; ++s) xh += ws.x[s] * ws.h[s];
  if (!factor_jacobian(ws)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {xh * n_mix, nan, nan, nan, nan};
  }
  // Right-hand sides -dR/dT and -dR/dln p; dR_i/dln p is minus the
  // Jacobian's d/du column.
  std::array<double, kMaxUnknowns> rt{}, rp{}, scratch{};
  const double n_total = std::exp(ws.pot[ne]);
  for (std::size_t i = 0; i < ne; ++i) {
    double acc_h = 0.0;
    for (std::size_t s = 0; s < ns; ++s) acc_h += a[i * ns + s] * ws.x[s] * ws.h[s];
    rt[i] = -n_total * acc_h / (kRu * t * t) / b_scale_;
    rp[i] = ws.jac[i * nu + ne];
  }
  rt[ne] = -xh / (kRu * t * t);
  rp[ne] = 1.0;
  const auto lu = std::span(ws.lu).first(nu * nu);
  const auto piv = std::span(ws.piv).first(nu);
  numerics::lu_solve_inplace(lu, nu, piv, std::span(rt).first(nu), scratch);
  numerics::lu_solve_inplace(lu, nu, piv, std::span(rp).first(nu), scratch);
  ws.has_slopes = std::isfinite(rt[ne]) && std::isfinite(rp[ne]);
  ws.slope_t = t;
  ws.slope_log_p = std::log(p / kPressureRef);
  ws.dpot_dt = rt;
  ws.dpot_dlnp = rp;

  double cp_frozen = 0.0, cp_react = 0.0, dh_dlnp = 0.0;
  for (std::size_t s = 0; s < ns; ++s) {
    if (ws.x[s] == 0.0) continue;
    double dz_dt = ws.h[s] / (kRu * t * t), dz_dlnp = -1.0;
    for (std::size_t i = 0; i < ne; ++i) {
      dz_dt += a[i * ns + s] * rt[i];
      dz_dlnp += a[i * ns + s] * rp[i];
    }
    cp_frozen += ws.x[s] * ws.cp[s];
    cp_react += ws.x[s] * ws.h[s] * (rt[ne] + dz_dt);
    dh_dlnp += ws.x[s] * ws.h[s] * (rp[ne] + dz_dlnp);
  }
  return {xh * n_mix, n_mix * (cp_frozen + cp_react), n_mix * dh_dlnp, rt[ne],
          rp[ne]};
}

EquilibriumResult EquilibriumSolver::package(const Workspace& ws, double t,
                                             double p) const {
  const std::size_t ns = mix_.n_species();
  const std::size_t ne = active_elements_.size();
  EquilibriumResult out;
  out.t = t;
  out.p = p;
  out.x.assign(ws.x.begin(), ws.x.begin() + static_cast<std::ptrdiff_t>(ns));
  out.y = mix_.mass_fractions_from_moles(out.x);
  out.molar_mass = ws.mbar;
  const double r = kRu / out.molar_mass;
  out.rho = p / (r * t);
  out.h = mix_.enthalpy_mass(out.y, t);
  out.e = out.h - r * t;
  out.gamma_eff = out.e != 0.0 ? p / (out.rho * std::fabs(out.e)) + 1.0 : 0.0;
  out.pi.assign(ws.pot.begin(), ws.pot.begin() + static_cast<std::ptrdiff_t>(ne));
  out.ln_n = ws.pot[ne];
  return out;
}

EquilibriumResult EquilibriumSolver::solve_tp(
    double t, double p, const EquilibriumResult* near) const {
  Workspace ws;
  seed(ws, near);
  compose(ws, t, p);
  return package(ws, t, p);
}

EquilibriumResult EquilibriumSolver::solve_ph(
    double p, double h, const EquilibriumResult* near) const {
  CAT_REQUIRE(p > 0.0, "pressure must be positive");
  Workspace ws;
  const double t0 = seed(ws, near) ? near->t : kColdStartT;
  const double t = newton_on_t(
      [&](double tt) {
        compose(ws, tt, p);
        const Slopes d = slopes(ws, tt, p);
        return Probe{d.h - h, d.cp};
      },
      t0, {150.0, 40000.0, true, true},
      "EquilibriumSolver::solve_ph");
  return package(ws, t, p);
}

EquilibriumResult EquilibriumSolver::solve_rho_e(
    double rho, double e, const EquilibriumResult* near) const {
  CAT_REQUIRE(rho > 0.0, "density must be positive");
  Workspace ws;
  const double t0 = seed(ws, near) ? near->t : kColdStartT;
  const std::size_t ne = active_elements_.size();
  const double log_rho = std::log(rho);
  double p = 0.0;
  const double t = newton_on_t(
      [&](double tt) {
        // Pressure at (tt, rho): Newton on ln p from the molar mass of the
        // last probe (air-like when cold), with d ln rho/d ln p =
        // 1 - d ln N/d ln p.
        double log_p = std::log(
            rho * kRu * tt * (ws.warm ? std::exp(ws.pot[ne]) : 1.0 / 0.0288));
        Slopes d{};
        bool done = false;
        for (int iter = 0; iter < 30; ++iter) {
          p = std::exp(log_p);
          compose(ws, tt, p);
          d = slopes(ws, tt, p);
          const double miss = log_rho - std::log(p * ws.mbar / (kRu * tt));
          done = std::fabs(miss) <= 1e-13;
          if (done) break;
          // d ln N/d ln p lies in (-1, 0]; outside it (a regularized
          // Jacobian at low T) fall back to the fixed-point update.
          const double slope = 1.0 - d.du_dlnp;
          log_p += miss / (slope >= 1.0 && slope < 2.0 ? slope : 1.0);
        }
        if (!done)
          throw SolverError(
              "EquilibriumSolver::solve_rho_e: pressure Newton stalled");
        // e = h - Ru T N; de/dT at fixed rho through dln p/dT|rho.
        const double n_mix = 1.0 / ws.mbar;
        const double e_now = d.h - kRu * tt * n_mix;
        const double dlnp_dt = (1.0 / tt + d.du_dt) / (1.0 - d.du_dlnp);
        const double de_dt = d.cp - kRu * n_mix * (1.0 + tt * d.du_dt) +
                             (d.dh_dlnp - kRu * tt * n_mix * d.du_dlnp) *
                                 dlnp_dt;
        return Probe{e_now - e, de_dt};
      },
      t0, {50.0, 40000.0, false, true},
      "EquilibriumSolver::solve_rho_e");
  return package(ws, t, p);
}

double EquilibriumSolver::cp_equilibrium(const EquilibriumResult& st) const {
  Workspace ws;
  seed(ws, &st);
  compose(ws, st.t, st.p);
  return slopes(ws, st.t, st.p).cp;
}

double EquilibriumSolver::entropy(const EquilibriumResult& st) const {
  // Each species at its partial pressure, s(T, p x) = s(T, p_ref) -
  // Ru ln(p x/p_ref): a denormal trace fraction stays finite this way.
  double s_mix = 0.0;  // [J/(mol K)] per mole of mixture
  for (std::size_t s = 0; s < mix_.n_species(); ++s) {
    if (st.x[s] <= 0.0) continue;
    s_mix += st.x[s] *
             (entropy_mole(mix_.set().species(s), st.t, kPressureRef) -
              kRu * std::log(st.p * st.x[s] / kPressureRef));
  }
  return s_mix / st.molar_mass;
}

EquilibriumResult EquilibriumSolver::expand_isentropic(
    const EquilibriumResult& from, double p) const {
  CAT_REQUIRE(p > 0.0, "pressure must be positive");
  const double s_target = entropy(from);
  Workspace ws;
  seed(ws, &from);
  const std::size_t ns = mix_.n_species();
  // Entropy rises monotonically with T at fixed p: ds/dT = cp_eq/T.
  const double t = newton_on_t(
      [&](double tt) {
        compose(ws, tt, p);
        double s_mix = 0.0;
        for (std::size_t s = 0; s < ns; ++s) {
          if (ws.x[s] <= 0.0) continue;
          s_mix += ws.x[s] * (ws.s0[s] - kRu * std::log(p * ws.x[s] / kPressureRef));
        }
        return Probe{s_mix / ws.mbar - s_target, slopes(ws, tt, p).cp / tt};
      },
      from.t, {160.0, 40000.0, true, true},
      "EquilibriumSolver::expand_isentropic");
  return package(ws, t, p);
}

double EquilibriumSolver::sound_speed(const EquilibriumResult& st) const {
  // a^2 = (dp/drho)_e + (p/rho^2)(dp/de)_rho, evaluated by centered
  // differences of the equilibrium EOS, each inversion seeded by st.
  const double drho = 1e-4 * st.rho;
  const double de = 1e-4 * std::max(std::fabs(st.e), 1e5);
  const EquilibriumResult r1 = solve_rho_e(st.rho + drho, st.e, &st);
  const EquilibriumResult r2 = solve_rho_e(st.rho - drho, st.e, &st);
  const EquilibriumResult e1 = solve_rho_e(st.rho, st.e + de, &st);
  const EquilibriumResult e2 = solve_rho_e(st.rho, st.e - de, &st);
  const double dp_drho = (r1.p - r2.p) / (2.0 * drho);
  const double dp_de = (e1.p - e2.p) / (2.0 * de);
  const double a2 = dp_drho + st.p / (st.rho * st.rho) * dp_de;
  if (a2 <= 0.0) throw SolverError("equilibrium sound speed imaginary");
  return std::sqrt(a2);
}

}  // namespace cat::gas
