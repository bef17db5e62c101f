#include "solvers/euler/euler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/error.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

using numerics::limited_slope;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// HLLE numerical flux through a face with area-weighted normal (nx, nr),
/// from each side's state and its EOS pressure and sound speed.
Conservative hlle_flux(const Primitive& wl, const gas::EosState& el,
                       const Primitive& wr, const gas::EosState& er,
                       double nx, double nr) {
  const double area = std::sqrt(nx * nx + nr * nr);
  if (area < 1e-14) return {0.0, 0.0, 0.0, 0.0};
  const double nxh = nx / area, nrh = nr / area;

  auto pack = [&](const Primitive& w, double p, Conservative& cons,
                  Conservative& flux, double& un) {
    const double rho = w[0], u = w[1], v = w[2], e = w[3];
    const double et = e + 0.5 * (u * u + v * v);
    un = u * nxh + v * nrh;
    cons = {rho, rho * u, rho * v, rho * et};
    flux = {rho * un, rho * u * un + p * nxh, rho * v * un + p * nrh,
            (rho * et + p) * un};
  };
  Conservative ul, fl, ur, fr;
  double unl, unr;
  pack(wl, el.p, ul, fl, unl);
  pack(wr, er.p, ur, fr, unr);
  const double al = el.a, ar = er.a;

  const double sl = std::min(std::min(unl - al, unr - ar), 0.0);
  const double sr = std::max(std::max(unl + al, unr + ar), 0.0);
  Conservative f;
  const double inv = 1.0 / std::max(sr - sl, 1e-12);
  for (int k = 0; k < 4; ++k)
    f[k] = area *
           ((sr * fl[k] - sl * fr[k] + sl * sr * (ur[k] - ul[k])) * inv);
  return f;
}

}  // namespace

// cat-lint: allow-alloc (sizes every workspace once)
EulerSolver::EulerSolver(const grid::StructuredGrid& grid,
                         std::shared_ptr<const core::GasModel> gas,
                         FvOptions opt)
    : grid_(grid), gas_(std::move(gas)), opt_(opt) {
  CAT_REQUIRE(gas_ != nullptr, "gas model required");
  CAT_REQUIRE(!opt_.dirichlet || (grid_.ni() >= 2 && grid_.nj() >= 2),
              "Dirichlet verification ghosts extrapolate from two interior "
              "cells per direction");
  const std::size_t n = grid_.ni() * grid_.nj();
  u_.assign(n, Conservative{});
  w_.assign(n, Primitive{});
  p_.assign(n, 0.0);
  eos_.assign(n, gas::EosState{});
  res_.assign(n, Conservative{});
  u0_scratch_.assign(n, Conservative{});
  dt_scratch_.assign(n, 0.0);

  if (opt_.mechanism) {
    ns_ = opt_.mechanism->n_species();
    CAT_REQUIRE(opt_.species_y0.size() == ns_,
                "species_y0 must provide one mass fraction per species");
    double ysum = 0.0;
    for (const double y : opt_.species_y0) {
      CAT_REQUIRE(y >= 0.0 && y <= 1.0, "species_y0 out of [0, 1]");
      ysum += y;
    }
    CAT_REQUIRE(std::fabs(ysum - 1.0) < 1e-8, "species_y0 must sum to 1");
    chem_active_ = opt_.finite_rate && opt_.mechanism->n_reactions() > 0;
    us_.assign(ns_ * n, 0.0);
    ys_.assign(ns_ * n, 0.0);
    res_s_.assign(ns_ * n, 0.0);
    us0_scratch_.assign(ns_ * n, 0.0);
    slope_s_.assign(ns_ * n, 0.0);
    if (opt_.species_dirichlet) ghost_s_.assign(4 * ns_, 0.0);
    if (opt_.species_source) hook_s_.assign(ns_, 0.0);
    if (chem_active_) {
      wdot_.assign(ns_ * n, 0.0);
      damp_.assign(ns_ * n, 1.0);
      chem_rho_.assign(n, 0.0);
      chem_t_.assign(n, 0.0);
      chem_ws_.bind(*opt_.mechanism,
                    std::min(std::max<std::size_t>(opt_.species_block, 1), n));
    }
  }
}

void EulerSolver::initialize(const FreeStream& fs) {
  CAT_REQUIRE(fs.rho > 0.0 && fs.p > 0.0, "bad freestream");
  fs_ = fs;
  e_fs_ = gas_->energy(fs.rho, fs.p);
  eos_fs_ = gas_->state(fs.rho, e_fs_);
  v_cap_ = 4.0 * (std::fabs(fs.u) + std::fabs(fs.v) + eos_fs_.a);
  e_floor_ = gas_->min_energy() + 1e-3 * std::fabs(e_fs_ - gas_->min_energy());
  const Primitive w0{fs.rho, fs.u, fs.v, e_fs_};
  const Conservative c0 = encode(w0);
  std::fill(u_.begin(), u_.end(), c0);
  std::fill(w_.begin(), w_.end(), w0);
  std::fill(p_.begin(), p_.end(), fs.p);
  std::fill(eos_.begin(), eos_.end(), eos_fs_);
  const std::size_t n = u_.size();
  for (std::size_t s = 0; s < ns_; ++s) {
    const double y0 = opt_.species_y0[s];
    std::fill(ys_.begin() + static_cast<std::ptrdiff_t>(s * n),
              ys_.begin() + static_cast<std::ptrdiff_t>((s + 1) * n), y0);
    std::fill(us_.begin() + static_cast<std::ptrdiff_t>(s * n),
              us_.begin() + static_cast<std::ptrdiff_t>((s + 1) * n),
              fs.rho * y0);
  }
  residual0_ = -1.0;
  residual_ = 1.0;
  iter_count_ = 0;
}

Primitive EulerSolver::decode(const Conservative& c) const {
  const double rho = std::max(c[0], 1e-12);
  const double u = c[1] / rho;
  const double v = c[2] / rho;
  const double e = c[3] / rho - 0.5 * (u * u + v * v);
  return {rho, u, v, e};
}

Conservative EulerSolver::encode(const Primitive& w) const {
  return {w[0], w[0] * w[1], w[0] * w[2],
          w[0] * (w[3] + 0.5 * (w[1] * w[1] + w[2] * w[2]))};
}

void EulerSolver::decode_all() {
  // Positivity repair: an impulsive hypersonic start can transiently drive
  // a cell's internal energy negative or evacuate it. Clip to floors and
  // rewrite the conservative state so U and w stay consistent (local
  // conservation error accepted during the transient; converged steady
  // states never trip the floors).
  for (std::size_t k = 0; k < u_.size(); ++k) {
    Conservative& c = u_[k];
    c[0] = std::max(c[0], 1e-4 * fs_.rho);
    const double rho = c[0];
    double u = c[1] / rho, v = c[2] / rho;
    const double speed = std::sqrt(u * u + v * v);
    if (speed > v_cap_) {
      const double scale = v_cap_ / speed;
      u *= scale;
      v *= scale;
      c[1] = rho * u;
      c[2] = rho * v;
      c[3] = std::min(c[3], rho * (std::fabs(e_fs_) * 2.0 +
                                   0.5 * (u * u + v * v)));
    }
    const double e = c[3] / rho - 0.5 * (u * u + v * v);
    // Floor: just above the gas model's validity edge (ideal gas: e > 0;
    // tabulated EOS: the table's lower energy bound).
    if (e < e_floor_) {
      c[3] = rho * (e_floor_ + 0.5 * (u * u + v * v));
    }
    w_[k] = decode(c);
    eos_[k] = gas_->state(w_[k][0], w_[k][3]);
    p_[k] = eos_[k].p;
  }
}

void EulerSolver::decode_species() {
  // Primitive mass fractions from the conservative species planes, with
  // the same positivity-repair philosophy as decode_all: clip y to [0, 1],
  // renormalize the sum, and rewrite rho y_s so U and y stay consistent.
  // For exactly advected fields (frozen MMS) the repair is a no-op to
  // roundoff: symmetric limiters reconstruct sum(y) = 1 exactly.
  const std::size_t n = u_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double rho = w_[k][0];
    const double inv_rho = 1.0 / rho;
    double sum = 0.0;
    for (std::size_t s = 0; s < ns_; ++s) {
      const double y = std::clamp(us_[s * n + k] * inv_rho, 0.0, 1.0);
      ys_[s * n + k] = y;
      sum += y;
    }
    const double inv_sum = sum > 1e-12 ? 1.0 / sum : 0.0;
    for (std::size_t s = 0; s < ns_; ++s) {
      const double y = inv_sum > 0.0 ? ys_[s * n + k] * inv_sum
                                     : opt_.species_y0[s];
      ys_[s * n + k] = y;
      us_[s * n + k] = rho * y;
    }
  }
}

double EulerSolver::mach(std::size_t i, std::size_t j) const {
  const Primitive& w = w_[cidx(i, j)];
  return std::sqrt(w[1] * w[1] + w[2] * w[2]) / eos_[cidx(i, j)].a;
}

gas::EosState EulerSolver::side_state(const Primitive& w,
                                      std::size_t k) const {
  if (k != kNoCell && same_bits(w[0], w_[k][0]) && same_bits(w[3], w_[k][3]))
    return eos_[k];
  return gas_->state(w[0], w[3]);
}

Primitive EulerSolver::wall_ghost(std::size_t k, double nx,
                                  double nr) const {
  const Primitive& w = w_[k];
  const double area = std::sqrt(nx * nx + nr * nr);
  const double nxh = nx / area, nrh = nr / area;
  if (!opt_.viscous) {
    // Slip: reflect the normal velocity component.
    const double un = w[1] * nxh + w[2] * nrh;
    return {w[0], w[1] - 2.0 * un * nxh, w[2] - 2.0 * un * nrh, w[3]};
  }
  // No-slip isothermal: reflect velocity; caloric scaling of (rho, e) keeps
  // the ghost near the wall pressure at T -> 2 T_wall - T_in.
  const double t_in = eos_[k].t;
  const double t_ghost = std::max(2.0 * opt_.wall_temperature_K - t_in,
                                  0.2 * opt_.wall_temperature_K);
  const double ratio = t_ghost / std::max(t_in, 1.0);
  return {w[0] / ratio, -w[1], -w[2], w[3] * ratio};
}

Primitive EulerSolver::axis_ghost(const Primitive& w) const {
  return {w[0], w[1], -w[2], w[3]};
}

std::array<double, 2> EulerSolver::mms_center_i(std::ptrdiff_t qi,
                                                std::size_t j) const {
  const auto ni = static_cast<std::ptrdiff_t>(grid_.ni());
  if (qi >= 0 && qi < ni)
    return {grid_.xc(static_cast<std::size_t>(qi), j),
            grid_.rc(static_cast<std::size_t>(qi), j)};
  const std::size_t a = qi < 0 ? 0 : grid_.ni() - 1;  // nearest interior
  const std::size_t b = qi < 0 ? 1 : grid_.ni() - 2;  // next inward
  const double steps = qi < 0 ? static_cast<double>(-qi)
                              : static_cast<double>(qi - (ni - 1));
  return {grid_.xc(a, j) + steps * (grid_.xc(a, j) - grid_.xc(b, j)),
          grid_.rc(a, j) + steps * (grid_.rc(a, j) - grid_.rc(b, j))};
}

std::array<double, 2> EulerSolver::mms_center_j(std::size_t i,
                                                std::ptrdiff_t qj) const {
  const auto nj = static_cast<std::ptrdiff_t>(grid_.nj());
  if (qj >= 0 && qj < nj)
    return {grid_.xc(i, static_cast<std::size_t>(qj)),
            grid_.rc(i, static_cast<std::size_t>(qj))};
  const std::size_t a = qj < 0 ? 0 : grid_.nj() - 1;
  const std::size_t b = qj < 0 ? 1 : grid_.nj() - 2;
  const double steps = qj < 0 ? static_cast<double>(-qj)
                              : static_cast<double>(qj - (nj - 1));
  return {grid_.xc(i, a) + steps * (grid_.xc(i, a) - grid_.xc(i, b)),
          grid_.rc(i, a) + steps * (grid_.rc(i, a) - grid_.rc(i, b))};
}

Primitive EulerSolver::mms_state_i(std::ptrdiff_t qi, std::size_t j) const {
  if (qi >= 0 && qi < static_cast<std::ptrdiff_t>(grid_.ni()))
    return w_[cidx(static_cast<std::size_t>(qi), j)];
  const auto c = mms_center_i(qi, j);
  return opt_.dirichlet(c[0], c[1]);
}

Primitive EulerSolver::mms_state_j(std::size_t i, std::ptrdiff_t qj) const {
  if (qj >= 0 && qj < static_cast<std::ptrdiff_t>(grid_.nj()))
    return w_[cidx(i, static_cast<std::size_t>(qj))];
  const auto c = mms_center_j(i, qj);
  return opt_.dirichlet(c[0], c[1]);
}

void EulerSolver::species_line(bool along_i, std::size_t line) {
  const std::size_t n = u_.size();
  const std::size_t len = along_i ? grid_.ni() : grid_.nj();
  const std::size_t stride = along_i ? grid_.nj() : 1;
  const std::size_t base = along_i ? line : cidx(line, 0);
  const bool mms_sp = static_cast<bool>(opt_.species_dirichlet);
  if (mms_sp) {
    // Ghost rows g = 0..3 hold line positions -2, -1, len, len + 1.
    for (std::size_t g = 0; g < 4; ++g) {
      const auto q = g < 2 ? static_cast<std::ptrdiff_t>(g) - 2
                           : static_cast<std::ptrdiff_t>(len + g - 2);
      const auto c = along_i ? mms_center_i(q, line) : mms_center_j(line, q);
      opt_.species_dirichlet(c[0], c[1],
                             std::span<double>(ghost_s_.data() + g * ns_, ns_));
    }
  }
  if (!second_order_now_) return;
  // Cells whose full stencil exists: the interior of the line, or every
  // cell when Dirichlet ghosts close the stencil.
  const std::size_t q0 = mms_sp ? 0 : 1;
  const std::size_t q1 = mms_sp ? len : len - 1;
  for (std::size_t s = 0; s < ns_; ++s) {
    const double* y = ys_.data() + s * n + base;
    double* slope = slope_s_.data() + s * n + base;
    for (std::size_t q = q0; q < q1; ++q) {
      const double ym = q == 0 ? ghost_s_[ns_ + s] : y[(q - 1) * stride];
      const double yc = y[q * stride];
      const double yp =
          q + 1 == len ? ghost_s_[2 * ns_ + s] : y[(q + 1) * stride];
      slope[q * stride] = limited_slope(opt_.limiter, yc - ym, yp - yc);
    }
  }
}

void EulerSolver::species_face(bool along_i, std::size_t line,
                               std::size_t q, double f0) {
  const std::size_t n = u_.size();
  const std::size_t len = along_i ? grid_.ni() : grid_.nj();
  const std::size_t stride = along_i ? grid_.nj() : 1;
  const std::size_t base = along_i ? line : cidx(line, 0);
  const std::size_t kl = base + (q - 1) * stride;  // valid for q > 0
  const std::size_t kr = base + q * stride;        // valid for q < len
  const bool mms_sp = static_cast<bool>(opt_.species_dirichlet);
  if (!mms_sp && (q == 0 || q == len)) {
    // First-order boundary faces. The axis mirror, the outflow
    // zero-gradient and the non-catalytic wall ghost carry the interior
    // fractions; the outer boundary sees freestream fractions outside.
    // With equal sides the upwind rule below is exactly f0 * y.
    const std::size_t k_in = q == 0 ? kr : kl;
    const bool outer = !along_i && q == len;
    for (std::size_t s = 0; s < ns_; ++s) {
      const double yl = ys_[s * n + k_in];
      const double yr = outer ? opt_.species_y0[s] : yl;
      const double fs = 0.5 * (f0 * (yl + yr) - std::fabs(f0) * (yr - yl));
      if (q > 0) res_s_[s * n + kl] += fs;
      if (q < len) res_s_[s * n + kr] -= fs;
    }
    return;
  }
  // Slopes come from slope_s_; the two ghost cells next to the boundary
  // (Dirichlet mode only) take theirs from the exact ghost fractions.
  const auto lim = opt_.limiter;
  const bool slope_l = second_order_now_ && (mms_sp || q >= 2);
  const bool slope_r = second_order_now_ && (mms_sp || q + 1 < len);
  const double* g = ghost_s_.data();
  for (std::size_t s = 0; s < ns_; ++s) {
    const double* y = ys_.data() + s * n;
    const double* slope = slope_s_.data() + s * n;
    double yl, yr;
    if (q > 0) {
      yl = y[kl];
      if (slope_l) yl += 0.5 * slope[kl];
    } else {
      const double gm2 = g[s], gm1 = g[ns_ + s];
      yl = gm1;
      if (slope_l) yl += 0.5 * limited_slope(lim, gm1 - gm2, y[kr] - gm1);
    }
    if (q < len) {
      yr = y[kr];
      if (slope_r) yr -= 0.5 * slope[kr];
    } else {
      const double gp1 = g[2 * ns_ + s], gp2 = g[3 * ns_ + s];
      yr = gp1;
      if (slope_r) yr -= 0.5 * limited_slope(lim, gp1 - y[kl], gp2 - gp1);
    }
    // Upwind on the sign of the bulk mass flux: f0 yl for outflow of the
    // left cell, f0 yr for inflow — consistent with the HLLE mass flux so
    // a uniform y field advects exactly.
    const double fs = 0.5 * (f0 * (yl + yr) - std::fabs(f0) * (yr - yl));
    if (q > 0) res_s_[s * n + kl] += fs;
    if (q < len) res_s_[s * n + kr] -= fs;
  }
}

void EulerSolver::update_chemistry_source(const std::vector<double>& dts) {
  // Finite-rate sources for every cell through the SoA batch kernel, plus
  // the point-implicit damping factors. The source uses the field state of
  // the previous iteration (lagged), which is steady-state consistent: at
  // convergence the advective residual balances wdot of the converged
  // field exactly. Point-implicit form: splitting wdot = P - L (rho y)
  // with L = max(0, -wdot)/(rho y) >= 0, the update applies
  // 1/(1 + dt L) to the species residual — unconditionally stable for
  // stiff destruction, and the damping scales only the transient, never
  // the converged state.
  const std::size_t n = u_.size();
  const chemistry::Mechanism& mech = *opt_.mechanism;
  for (std::size_t k = 0; k < n; ++k) {
    chem_rho_[k] = w_[k][0];
    chem_t_[k] = eos_[k].t;
  }
  const std::size_t block = std::max<std::size_t>(opt_.species_block, 1);
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    const std::size_t len = std::min(block, n - i0);
    // One-temperature coupling: tv = t (the FV gas models are thermally
    // equilibrated; two-temperature coupling is a roadmap item).
    mech.mass_production_rates_batch(
        std::span<const double>(chem_rho_.data() + i0, len),
        std::span<const double>(ys_.data() + i0, ys_.size() - i0),
        std::span<const double>(chem_t_.data() + i0, len),
        std::span<const double>(chem_t_.data() + i0, len),
        std::span<double>(wdot_.data() + i0, wdot_.size() - i0), n, chem_ws_);
  }
  for (std::size_t s = 0; s < ns_; ++s) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = s * n + k;
      const double w = wdot_[idx];
      // Destruction: classic point-implicit 1/(1 + dt L), unconditionally
      // stable for stiff loss. Production is damped on the same relative
      // scale (floored near y ~ 1e-3 so trace species still ignite):
      // explicit production at shock-layer rates would otherwise outrun
      // the damped destruction of its reactants during the transient and
      // push the composition outside the elemental envelope that the
      // converged state satisfies exactly.
      const double scale = w < 0.0
                               ? std::max(us_[idx], 1e-12)
                               : std::max(us_[idx], 1e-3 * w_[k][0]);
      damp_[idx] = 1.0 / (1.0 + dts[k] * std::fabs(w) / scale);
    }
  }
}

void EulerSolver::accumulate_fluxes() {
  const std::size_t ni = grid_.ni(), nj = grid_.nj();
  const auto lim = opt_.limiter;
  const bool mms = static_cast<bool>(opt_.dirichlet);

  // Reconstruction helper: face states from cell values along a line.
  auto face_states = [&](const Primitive& wm2, const Primitive& wm1,
                         const Primitive& wp1, const Primitive& wp2,
                         bool have_m2, bool have_p2, Primitive& wl,
                         Primitive& wr) {
    wl = wm1;
    wr = wp1;
    if (!second_order_now_) return;
    for (int k = 0; k < 4; ++k) {
      if (have_m2) {
        const double s = limited_slope(lim, wm1[k] - wm2[k], wp1[k] - wm1[k]);
        wl[k] = wm1[k] + 0.5 * s;
      }
      if (have_p2) {
        const double s = limited_slope(lim, wp1[k] - wm1[k], wp2[k] - wp1[k]);
        wr[k] = wp1[k] - 0.5 * s;
      }
    }
    // Guard reconstructed states (density and energy positivity).
    wl[0] = std::max(wl[0], 1e-12);
    wr[0] = std::max(wr[0], 1e-12);
    const double e_guard = 1e-4 * std::fabs(wm1[3]) + 1e2;
    if (wl[3] < e_guard) wl[3] = wm1[3];
    if (wr[3] < e_guard) wr[3] = wp1[3];
  };

  // ---- i-direction sweeps ----
  for (std::size_t j = 0; j < nj; ++j) {
    if (ns_ > 0) species_line(/*along_i=*/true, j);
    for (std::size_t i = 0; i <= ni; ++i) {
      const double nx = grid_.iface_nx(i, j);
      const double nr = grid_.iface_nr(i, j);
      Primitive wl, wr;
      // Cells owning the two face sides (their EOS cache may be reused).
      std::size_t kl = i > 0 ? cidx(i - 1, j) : kNoCell;
      std::size_t kr = i < ni ? cidx(i, j) : kNoCell;
      if (mms) {
        // Dirichlet verification mode: every face sees a full MUSCL
        // stencil, with exact manufactured states beyond the boundary.
        const auto qi = static_cast<std::ptrdiff_t>(i);
        face_states(mms_state_i(qi - 2, j), mms_state_i(qi - 1, j),
                    mms_state_i(qi, j), mms_state_i(qi + 1, j), true, true,
                    wl, wr);
      } else if (i == 0) {
        // Axis/symmetry boundary: mirrored ghost.
        wl = axis_ghost(w_[kr]);
        wr = w_[kr];
        kl = kr;
      } else if (i == ni) {
        // Outflow: zero-gradient ghost.
        wl = w_[kl];
        wr = wl;
        kr = kl;
      } else {
        const bool have_m2 = i >= 2;
        const bool have_p2 = i + 1 < ni;
        face_states(have_m2 ? w_[cidx(i - 2, j)] : w_[kl], w_[kl], w_[kr],
                    have_p2 ? w_[cidx(i + 1, j)] : w_[kr], have_m2, have_p2,
                    wl, wr);
      }
      const Conservative f = hlle_flux(wl, side_state(wl, kl), wr,
                                       side_state(wr, kr), nx, nr);
      // res accumulates net outflux; update is U -= dt/V res.
      if (i > 0)
        for (int k = 0; k < 4; ++k) res_[cidx(i - 1, j)][k] += f[k];
      if (i < ni)
        for (int k = 0; k < 4; ++k) res_[cidx(i, j)][k] -= f[k];
      if (ns_ > 0) species_face(/*along_i=*/true, j, i, f[0]);
    }
  }

  // ---- j-direction sweeps ----
  const Primitive w_fs{fs_.rho, fs_.u, fs_.v, e_fs_};
  for (std::size_t i = 0; i < ni; ++i) {
    if (ns_ > 0) species_line(/*along_i=*/false, i);
    for (std::size_t j = 0; j <= nj; ++j) {
      const double nx = grid_.jface_nx(i, j);
      const double nr = grid_.jface_nr(i, j);
      Primitive wl, wr;
      std::size_t kl = j > 0 ? cidx(i, j - 1) : kNoCell;
      std::size_t kr = j < nj ? cidx(i, j) : kNoCell;
      if (mms) {
        const auto qj = static_cast<std::ptrdiff_t>(j);
        face_states(mms_state_j(i, qj - 2), mms_state_j(i, qj - 1),
                    mms_state_j(i, qj), mms_state_j(i, qj + 1), true, true,
                    wl, wr);
      } else if (j == 0) {
        // Wall: ghost below.
        wr = w_[kr];
        wl = wall_ghost(kr, nx, nr);
        kl = kr;
      } else if (j == nj) {
        // Outer boundary: freestream (supersonic inflow).
        wl = w_[kl];
        wr = w_fs;
      } else {
        const bool have_m2 = j >= 2;
        const bool have_p2 = j + 1 < nj;
        face_states(have_m2 ? w_[cidx(i, j - 2)] : w_[kl], w_[kl], w_[kr],
                    have_p2 ? w_[cidx(i, j + 1)] : w_[kr], have_m2, have_p2,
                    wl, wr);
      }
      // The freestream ghost's EOS is the constant computed by initialize().
      const gas::EosState er =
          !mms && j == nj ? eos_fs_ : side_state(wr, kr);
      const Conservative f =
          hlle_flux(wl, side_state(wl, kl), wr, er, nx, nr);
      if (j > 0)
        for (int k = 0; k < 4; ++k) res_[cidx(i, j - 1)][k] += f[k];
      if (j < nj)
        for (int k = 0; k < 4; ++k) res_[cidx(i, j)][k] -= f[k];
      if (ns_ > 0) species_face(/*along_i=*/false, i, j, f[0]);
    }
  }

  // ---- axisymmetric pressure source (update is U -= dt/V res) ----
  if (grid_.axisymmetric()) {
    for (std::size_t k = 0; k < u_.size(); ++k) {
      res_[k][2] -= p_[k] * grid_.area(k / nj, k % nj);
    }
  }

  if (opt_.viscous) accumulate_viscous();

  // ---- verification forcing (update is U -= dt/V res, so a positive
  // source density enters the residual negatively) ----
  if (opt_.source) {
    for (std::size_t i = 0; i < ni; ++i) {
      for (std::size_t j = 0; j < nj; ++j) {
        const std::array<double, 4> s = opt_.source(grid_.xc(i, j),
                                                    grid_.rc(i, j));
        const double vol = grid_.volume(i, j);
        for (int k = 0; k < 4; ++k) res_[cidx(i, j)][k] -= s[k] * vol;
      }
    }
  }

  // ---- species sources (same sign convention as opt_.source) ----
  if (chem_active_) {
    const std::size_t n = u_.size();
    for (std::size_t s = 0; s < ns_; ++s)
      for (std::size_t k = 0; k < n; ++k)
        res_s_[s * n + k] -= wdot_[s * n + k] * grid_.volume(k / nj, k % nj);
  }
  if (opt_.species_source) {
    const std::size_t n = u_.size();
    for (std::size_t i = 0; i < ni; ++i) {
      for (std::size_t j = 0; j < nj; ++j) {
        opt_.species_source(grid_.xc(i, j), grid_.rc(i, j), hook_s_);
        const double vol = grid_.volume(i, j);
        for (std::size_t s = 0; s < ns_; ++s)
          res_s_[s * n + cidx(i, j)] -= hook_s_[s] * vol;
      }
    }
  }
}

void EulerSolver::accumulate_viscous() {
  // Laminar constant-Prandtl viscous model with Sutherland viscosity.
  // Thin-layer: only wall-normal (j) gradients are retained; axisymmetric
  // curvature stresses neglected (adequate for the thin hypersonic
  // boundary layers of the target cases; documented in DESIGN.md).
  const std::size_t ni = grid_.ni(), nj = grid_.nj();
  const bool mms = static_cast<bool>(opt_.dirichlet);

  auto add_face = [&](std::size_t ia, std::size_t ja, std::size_t ib,
                      std::size_t jb, double nx, double nr, bool wall_face,
                      bool outer_face) {
    const double area = std::sqrt(nx * nx + nr * nr);
    if (area < 1e-14) return;
    const double nxh = nx / area, nrh = nr / area;

    const std::size_t ka = cidx(ia, ja), kb = cidx(ib, jb);
    Primitive wa, wb;
    double dn;
    // Temperatures of both sides, and the pressure of the side `wn` below
    // (wb at boundary faces, wa elsewhere): cell sides read the cache, the
    // freestream side its constants, ghost states query the EOS.
    double ta, tb, p_loc;
    if (mms && (wall_face || outer_face)) {
      // Dirichlet verification: the exterior state is the exact
      // manufactured value at the extrapolated ghost center.
      const std::ptrdiff_t qg =
          wall_face ? -1 : static_cast<std::ptrdiff_t>(nj);
      const auto cg = mms_center_j(ib, qg);
      const Primitive wg = opt_.dirichlet(cg[0], cg[1]);
      wa = wall_face ? wg : w_[ka];
      wb = wall_face ? w_[kb] : wg;
      if (wall_face) {
        ta = gas_->temperature(wg[0], wg[3]);
        tb = eos_[kb].t;
        p_loc = eos_[kb].p;
      } else {
        const gas::EosState eg = gas_->state(wg[0], wg[3]);
        ta = eos_[ka].t;
        tb = eg.t;
        p_loc = eg.p;
      }
      const double xi2 = wall_face ? grid_.xc(ib, jb) : cg[0];
      const double ri2 = wall_face ? grid_.rc(ib, jb) : cg[1];
      const double xi1 = wall_face ? cg[0] : grid_.xc(ia, ja);
      const double ri1 = wall_face ? cg[1] : grid_.rc(ia, ja);
      dn = std::sqrt((xi2 - xi1) * (xi2 - xi1) + (ri2 - ri1) * (ri2 - ri1));
    } else {
      wa = wall_face ? wall_ghost(kb, nx, nr) : w_[ka];
      wb = outer_face ? Primitive{fs_.rho, fs_.u, fs_.v, e_fs_} : w_[kb];
      ta = wall_face ? gas_->temperature(wa[0], wa[3]) : eos_[ka].t;
      tb = outer_face ? eos_fs_.t : eos_[kb].t;
      p_loc = outer_face ? eos_fs_.p : wall_face ? eos_[kb].p : eos_[ka].p;
      if (wall_face) {
        const double xw = 0.5 * (grid_.xn(ib, 0) + grid_.xn(ib + 1, 0));
        const double rw = 0.5 * (grid_.rn(ib, 0) + grid_.rn(ib + 1, 0));
        dn = 2.0 * std::sqrt(
                       (grid_.xc(ib, 0) - xw) * (grid_.xc(ib, 0) - xw) +
                       (grid_.rc(ib, 0) - rw) * (grid_.rc(ib, 0) - rw));
      } else {
        const double xa = grid_.xc(ia, ja), ra = grid_.rc(ia, ja);
        const double xb = grid_.xc(ib, jb), rb = grid_.rc(ib, jb);
        dn = std::sqrt((xb - xa) * (xb - xa) + (rb - ra) * (rb - ra));
      }
    }
    if (dn < 1e-14) return;

    const double t_face = std::clamp(0.5 * (ta + tb), 50.0, 30000.0);
    const double mu = transport::sutherland_viscosity(t_face);
    const Primitive& wn = wall_face || outer_face ? wb : wa;
    const double t_n = wall_face || outer_face ? tb : ta;
    const double gamma_eff =
        std::clamp(p_loc / (wn[0] * std::max(wn[3], 1e3)) + 1.0, 1.05, 1.67);
    // cp from the same cell state as p_loc/rho (p/(rho T) is that cell's
    // gas constant; for ideal gas this is exact). Mixing the
    // face-averaged temperature in here left an O(dn) inconsistency in
    // the conduction coefficient (found in the SourceHook audit).
    const double cp = gamma_eff / (gamma_eff - 1.0) * p_loc /
                      (wn[0] * std::max(t_n, 50.0));
    const double k_cond = mu * cp / opt_.prandtl;

    const double dudn = (wb[1] - wa[1]) / dn;
    const double dvdn = (wb[2] - wa[2]) / dn;
    const double dtdn = (tb - ta) / dn;
    const double u_face = 0.5 * (wa[1] + wb[1]);
    const double v_face = 0.5 * (wa[2] + wb[2]);

    const double tau_xx = mu * (4.0 / 3.0) * dudn * nxh;
    const double tau_xr = mu * (dudn * nrh + dvdn * nxh);
    const double tau_rr = mu * (4.0 / 3.0) * dvdn * nrh;
    const double fx = tau_xx * nxh + tau_xr * nrh;
    const double fr = tau_xr * nxh + tau_rr * nrh;
    const double fe = fx * u_face + fr * v_face + k_cond * dtdn;

    // res accumulates net outflux of (F_conv - F_visc): viscous enters with
    // the opposite sign to the convective accumulation. The physical outer
    // boundary drops its viscous flux (freestream); the Dirichlet
    // verification mode keeps it (nonzero for manufactured fields).
    if (!wall_face && (!outer_face || mms)) {
      res_[cidx(ia, ja)][1] -= fx * area;
      res_[cidx(ia, ja)][2] -= fr * area;
      res_[cidx(ia, ja)][3] -= fe * area;
    }
    if (!outer_face) {
      res_[cidx(ib, jb)][1] += fx * area;
      res_[cidx(ib, jb)][2] += fr * area;
      res_[cidx(ib, jb)][3] += fe * area;
    }
  };

  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j <= nj; ++j) {
      const double nx = grid_.jface_nx(i, j);
      const double nr = grid_.jface_nr(i, j);
      if (j == 0) {
        add_face(i, 0, i, 0, nx, nr, /*wall=*/true, false);
      } else if (j == nj) {
        add_face(i, nj - 1, i, nj - 1, nx, nr, false, /*outer=*/true);
      } else {
        add_face(i, j - 1, i, j, nx, nr, false, false);
      }
    }
  }
}

double EulerSolver::local_dt(std::size_t i, std::size_t j) const {
  const Primitive& w = w_[cidx(i, j)];
  const double a = eos_[cidx(i, j)].a;
  double sum = 0.0;
  for (std::size_t f = 0; f < 2; ++f) {
    const double nx = grid_.iface_nx(i + f, j);
    const double nr = grid_.iface_nr(i + f, j);
    const double area = std::sqrt(nx * nx + nr * nr);
    if (area < 1e-14) continue;
    const double un = (w[1] * nx + w[2] * nr) / area;
    sum += 0.5 * (std::fabs(un) + a) * area;
  }
  double aj_mean = 0.0;
  for (std::size_t f = 0; f < 2; ++f) {
    const double nx = grid_.jface_nx(i, j + f);
    const double nr = grid_.jface_nr(i, j + f);
    const double area = std::sqrt(nx * nx + nr * nr);
    const double un = (w[1] * nx + w[2] * nr) / area;
    sum += 0.5 * (std::fabs(un) + a) * area;
    aj_mean += 0.5 * area;
  }
  if (opt_.viscous) {
    // Diffusive stability: the convective-only time step violates the
    // explicit limit dt <= dy^2/(2 nu_eff) once cells are fine enough
    // (exposed by the verify NS convergence ladder). Thin-layer model:
    // only the j-direction diffusion counts.
    const double t_c = std::clamp(eos_[cidx(i, j)].t, 50.0, 30000.0);
    const double mu = transport::sutherland_viscosity(t_c);
    const double p_c = p_[cidx(i, j)];
    const double gamma_eff =
        std::clamp(p_c / (w[0] * std::max(w[3], 1e3)) + 1.0, 1.05, 1.67);
    const double nu_eff =
        mu / w[0] * std::max(4.0 / 3.0, gamma_eff / opt_.prandtl);
    const double dy = grid_.volume(i, j) / std::max(aj_mean, 1e-14);
    sum += 2.0 * nu_eff * aj_mean / std::max(dy, 1e-14);
  }
  return cfl_now_ * grid_.volume(i, j) / std::max(sum, 1e-12);
}

double EulerSolver::advance(std::size_t n) {
  const std::size_t cells = u_.size();
  // Preallocated per-iteration workspaces (no allocation in the loop).
  std::vector<Conservative>& u0 = u0_scratch_;
  std::vector<double>& dts = dt_scratch_;
  for (std::size_t step = 0; step < n; ++step) {
    // Startup phase: first-order, half CFL (impulsive-start robustness).
    const bool startup = iter_count_ < opt_.startup_iters;
    second_order_now_ = opt_.muscl && !startup;
    cfl_now_ = startup ? 0.5 * opt_.cfl : opt_.cfl;
    ++iter_count_;
    // Reference residual for the convergence test: the first iteration
    // after startup (the impulsive transient would make the relative drop
    // meaningless and trigger spurious early exits).
    if (iter_count_ == opt_.startup_iters + 2) residual0_ = -1.0;
    std::copy(u_.begin(), u_.end(), u0.begin());
    if (ns_ > 0) std::copy(us_.begin(), us_.end(), us0_scratch_.begin());
    for (std::size_t k = 0; k < cells; ++k)
      dts[k] = local_dt(k / grid_.nj(), k % grid_.nj());
    if (chem_active_) update_chemistry_source(dts);

    double rnorm = 0.0;
    for (int stage = 0; stage < 2; ++stage) {
      std::fill(res_.begin(), res_.end(), Conservative{});
      if (ns_ > 0) std::fill(res_s_.begin(), res_s_.end(), 0.0);
      accumulate_fluxes();
      if (stage == 0) {
        for (std::size_t k = 0; k < cells; ++k) {
          const double s =
              dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
          for (int q = 0; q < 4; ++q) u_[k][q] = u0[k][q] - s * res_[k][q];
        }
        for (std::size_t sp = 0; sp < ns_; ++sp) {
          for (std::size_t k = 0; k < cells; ++k) {
            const std::size_t idx = sp * cells + k;
            const double s =
                dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
            // Point-implicit: damp scales the update, not the converged
            // state (res_s = 0 at steady state regardless of damp).
            const double dmp = chem_active_ ? damp_[idx] : 1.0;
            us_[idx] = us0_scratch_[idx] - dmp * s * res_s_[idx];
          }
        }
      } else {
        rnorm = 0.0;
        for (std::size_t k = 0; k < cells; ++k) {
          const double s =
              dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
          for (int q = 0; q < 4; ++q)
            u_[k][q] = 0.5 * (u0[k][q] + u_[k][q] - s * res_[k][q]);
          const double dr = (u_[k][0] - u0[k][0]) / std::max(u0[k][0], 1e-12);
          rnorm += dr * dr;
        }
        rnorm = std::sqrt(rnorm / static_cast<double>(cells));
        for (std::size_t sp = 0; sp < ns_; ++sp) {
          for (std::size_t k = 0; k < cells; ++k) {
            const std::size_t idx = sp * cells + k;
            const double s =
                dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
            const double dmp = chem_active_ ? damp_[idx] : 1.0;
            us_[idx] = 0.5 * (us0_scratch_[idx] + us_[idx] -
                              dmp * s * res_s_[idx]);
          }
        }
      }
      decode_all();
      if (ns_ > 0) decode_species();
    }
    residual_ = rnorm;
    if (residual0_ < 0.0 && rnorm > 0.0) residual0_ = rnorm;
  }
  return residual0_ > 0.0 ? residual_ / residual0_ : residual_;
}

std::size_t EulerSolver::solve() {
  std::size_t done = 0;
  const std::size_t chunk = 50;
  while (done < opt_.max_iter) {
    const std::size_t step = std::min(chunk, opt_.max_iter - done);
    done += step;
    if (advance(step) < opt_.residual_tol) break;
    if (!std::isfinite(residual_))
      throw SolverError("EulerSolver: residual diverged");
  }
  return done;
}

// cat-lint: allow-alloc (returns a new vector; not on the iteration path)
std::vector<EulerSolver::ShockPoint> EulerSolver::shock_locations() const {
  std::vector<ShockPoint> pts;
  pts.reserve(grid_.ni());
  for (std::size_t i = 0; i < grid_.ni(); ++i) {
    double best = 0.0;
    std::size_t jbest = grid_.nj() - 1;
    for (std::size_t j = grid_.nj() - 1; j-- > 0;) {
      const double dp = p_[cidx(i, j)] - p_[cidx(i, j + 1)];
      if (dp > best) {
        best = dp;
        jbest = j;
      }
    }
    pts.push_back({grid_.xc(i, jbest), grid_.rc(i, jbest), jbest});
  }
  return pts;
}

// cat-lint: allow-alloc (returns a new vector; not on the iteration path)
std::vector<double> EulerSolver::wall_heat_flux() const {
  std::vector<double> q(grid_.ni(), 0.0);
  if (!opt_.viscous) return q;
  for (std::size_t i = 0; i < grid_.ni(); ++i) {
    const double t_in = temperature(i, 0);
    const double xw = 0.5 * (grid_.xn(i, 0) + grid_.xn(i + 1, 0));
    const double rw = 0.5 * (grid_.rn(i, 0) + grid_.rn(i + 1, 0));
    const double dn =
        std::sqrt((grid_.xc(i, 0) - xw) * (grid_.xc(i, 0) - xw) +
                  (grid_.rc(i, 0) - rw) * (grid_.rc(i, 0) - rw));
    const double t_face =
        std::clamp(0.5 * (t_in + opt_.wall_temperature_K), 50.0, 30000.0);
    const double mu = transport::sutherland_viscosity(t_face);
    const Primitive& w = w_[cidx(i, 0)];
    const double gamma_eff = std::clamp(
        p_[cidx(i, 0)] / (w[0] * std::max(w[3], 1e3)) + 1.0, 1.05, 1.67);
    // Same consistency rule as accumulate_viscous: cp pairs p/rho with the
    // temperature of the cell they came from, not the face average.
    const double cp = gamma_eff / (gamma_eff - 1.0) * p_[cidx(i, 0)] /
                      (w[0] * std::max(t_in, 50.0));
    q[i] = mu * cp / opt_.prandtl * (t_in - opt_.wall_temperature_K) / dn;
  }
  return q;
}

}  // namespace cat::solvers
