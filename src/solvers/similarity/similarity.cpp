#include "solvers/similarity/similarity.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/error.hpp"

namespace cat::solvers {

LayerTable tabulate_layer(const gas::EquilibriumSolver& eq,
                          const transport::MixtureTransport& trans,
                          const gas::EquilibriumResult& wall, double p,
                          double h_lo, double h_hi, std::size_t n_nodes,
                          double rho_e_mu_e) {
  CAT_REQUIRE(n_nodes >= 2 && h_hi > h_lo, "bad similarity table span");
  // cat-lint: allow-alloc (table construction, once per station)
  std::vector<double> h_nodes(n_nodes), c(n_nodes), c_pr(n_nodes),
      rho(n_nodes), t(n_nodes);
  std::vector<std::vector<double>> x(n_nodes);  // cat-lint: allow-alloc (table)
  // The sweep climbs in enthalpy from the wall: each node seeds the next.
  gas::EquilibriumResult st = wall;
  for (std::size_t k = 0; k < n_nodes; ++k) {
    const double h = h_lo + (h_hi - h_lo) * static_cast<double>(k) /
                                static_cast<double>(n_nodes - 1);
    st = eq.solve_ph(p, h, &st);
    const double mu = trans.viscosity(st.y, st.t);
    h_nodes[k] = h;
    rho[k] = st.rho;
    t[k] = st.t;
    c[k] = st.rho * mu / rho_e_mu_e;
    c_pr[k] = c[k] / trans.prandtl(st.y, st.t);
    x[k] = st.x;
  }
  return {h_lo, h_hi, numerics::Pchip(h_nodes, c),
          numerics::Pchip(h_nodes, c_pr), numerics::Pchip(h_nodes, rho),
          numerics::Pchip(h_nodes, t), std::move(x)};
}

namespace {

using State = std::array<double, 5>;  // [f, f', f'', g, G]

// Static enthalpy the properties are read at, clamped to the table.
double static_enthalpy(const LayerTable& tab, const SimilarityStation& st,
                       double g, double fp) {
  return std::clamp(st.h_total * (g - st.d_kin * fp * fp), tab.h_lo,
                    tab.h_hi);
}

void rhs(const LayerTable& tab, const SimilarityStation& st, const State& u,
         State& du) {
  const double h = static_enthalpy(tab, st, u[3], u[1]);
  const double C = std::max(tab.c(h), 1e-4);
  const double CPr = std::max(tab.c_over_pr(h), 1e-4);
  const double rr = st.rho_edge / std::max(tab.rho(h), 1e-12);
  // Centred difference, not Pchip::derivative: catbench's references pin
  // the outputs of this slope.
  const double dh = 1e-4 * std::fabs(st.h_total);
  const double dC_dh = (tab.c(std::min(h + dh, tab.h_hi)) -
                        tab.c(std::max(h - dh, tab.h_lo))) /
                       (2.0 * dh);
  const double gp = u[4] / CPr;
  // dC/deta = dC/dh * dh/deta, with h depending on g and f'.
  const double dhdeta = st.h_total * (gp - 2.0 * st.d_kin * u[1] * u[2]);
  du[0] = u[1];
  du[1] = u[2];
  du[2] = -(u[0] * u[2] + st.beta * (rr - u[1] * u[1]) +
            dC_dh * dhdeta * u[2]) /
          C;
  du[3] = gp;
  // Energy with viscous-dissipation transport (Pr != 1 correction):
  // (C/Pr g')' = -f g' - d/deta[ C (1-1/Pr) 2 d_kin f' f'' ].
  // The bracket derivative is folded in by quasi-linearization using its
  // local value (adequate at these Prandtl numbers ~ 0.7).
  const double pr_loc = C / CPr;
  const double diss = C * (1.0 - 1.0 / pr_loc) * 2.0 * st.d_kin * u[1] * u[2];
  du[4] = -u[0] * gp - diss * 0.5;  // smooth half-weight treatment
}

// RK4 shoot from the wall; returns the edge residuals [f' - 1, g - 1].
// A given h profile (already sized n_eta) receives h at every node.
std::array<double, 2> shoot(const LayerTable& tab, const SimilarityStation& st,
                            double fpp0, double bigG0, double* h_profile) {
  const double d_eta = st.eta_max / static_cast<double>(st.n_eta - 1);
  State u{0.0, 0.0, fpp0, st.g_w, bigG0};
  if (h_profile) h_profile[0] = static_enthalpy(tab, st, u[3], u[1]);
  for (std::size_t k = 1; k < st.n_eta; ++k) {
    State k1, k2, k3, k4, tmp;
    rhs(tab, st, u, k1);
    for (int q = 0; q < 5; ++q) tmp[q] = u[q] + 0.5 * d_eta * k1[q];
    rhs(tab, st, tmp, k2);
    for (int q = 0; q < 5; ++q) tmp[q] = u[q] + 0.5 * d_eta * k2[q];
    rhs(tab, st, tmp, k3);
    for (int q = 0; q < 5; ++q) tmp[q] = u[q] + d_eta * k3[q];
    rhs(tab, st, tmp, k4);
    for (int q = 0; q < 5; ++q)
      u[q] += d_eta / 6.0 * (k1[q] + 2 * k2[q] + 2 * k3[q] + k4[q]);
    // Wide anti-overflow guards only: hard clamps at physical bounds
    // would zero the Newton Jacobian.
    u[1] = std::clamp(u[1], -5.0, 5.0);
    u[3] = std::clamp(u[3], -1.0, 3.0);
    if (h_profile) h_profile[k] = static_enthalpy(tab, st, u[3], u[1]);
  }
  return {u[1] - 1.0, u[3] - 1.0};
}

}  // namespace

SimilarityResult solve_similarity(const LayerTable& table,
                                  const SimilarityStation& station,
                                  double fpp0, double bigG0,
                                  std::vector<double>* h_profile) {
  CAT_REQUIRE(station.n_eta >= 2, "bad similarity grid");
  bool converged = false;
  // cat-lint: converges-by-construction (damped two-parameter Newton;
  // exhaustion and a singular Jacobian are recorded in `converged`, not
  // thrown, because catbench's references pin the unconverged outputs)
  for (int it = 0; it < 50; ++it) {
    const auto r0 = shoot(table, station, fpp0, bigG0, nullptr);
    if (std::fabs(r0[0]) < 1e-8 && std::fabs(r0[1]) < 1e-8) {
      converged = true;
      break;
    }
    const double da = 1e-6, db = 1e-6;
    const auto ra = shoot(table, station, fpp0 + da, bigG0, nullptr);
    const auto rb = shoot(table, station, fpp0, bigG0 + db, nullptr);
    const double j11 = (ra[0] - r0[0]) / da, j12 = (rb[0] - r0[0]) / db;
    const double j21 = (ra[1] - r0[1]) / da, j22 = (rb[1] - r0[1]) / db;
    const double det = j11 * j22 - j12 * j21;
    if (std::fabs(det) < 1e-16) break;
    // Damping keeps the shoot from leaving the physical branch.
    fpp0 -= std::clamp((j22 * r0[0] - j12 * r0[1]) / det, -0.4, 0.4);
    bigG0 -= std::clamp((-j21 * r0[0] + j11 * r0[1]) / det, -0.4, 0.4);
    fpp0 = std::clamp(fpp0, 0.01, 4.0);
  }
  if (h_profile) {
    h_profile->resize(station.n_eta);  // cat-lint: allow-alloc (profile)
    shoot(table, station, fpp0, bigG0, h_profile->data());
  }
  return {fpp0, bigG0, converged};
}

}  // namespace cat::solvers
