#include "verify/mms.hpp"

#include <cmath>

#include "transport/transport.hpp"

namespace cat::verify {

double TrigField::v(double x, double y) const {
  return c0 + amp * std::sin(kx * x + ky * y + phase);
}
double TrigField::dx(double x, double y) const {
  return amp * kx * std::cos(kx * x + ky * y + phase);
}
double TrigField::dy(double x, double y) const {
  return amp * ky * std::cos(kx * x + ky * y + phase);
}
double TrigField::dyy(double x, double y) const {
  return -amp * ky * ky * std::sin(kx * x + ky * y + phase);
}

std::array<double, 4> FvManufactured::primitive(double x, double y) const {
  const double r = rho.v(x, y);
  return {r, u.v(x, y), v.v(x, y), p.v(x, y) / ((gamma - 1.0) * r)};
}

double FvManufactured::temperature(double x, double y) const {
  return p.v(x, y) / (rho.v(x, y) * r_gas);
}

std::array<double, 4> FvManufactured::convective_flux_x(double x,
                                                        double y) const {
  const double r = rho.v(x, y), uu = u.v(x, y), vv = v.v(x, y),
               pp = p.v(x, y);
  const double w = gamma * pp / (gamma - 1.0) +
                   0.5 * r * (uu * uu + vv * vv);  // rho E + p
  return {r * uu, r * uu * uu + pp, r * uu * vv, uu * w};
}

std::array<double, 4> FvManufactured::convective_flux_y(double x,
                                                        double y) const {
  const double r = rho.v(x, y), uu = u.v(x, y), vv = v.v(x, y),
               pp = p.v(x, y);
  const double w = gamma * pp / (gamma - 1.0) +
                   0.5 * r * (uu * uu + vv * vv);
  return {r * vv, r * uu * vv, r * vv * vv + pp, vv * w};
}

namespace {
/// Sutherland viscosity and its temperature derivative. mu comes from the
/// solver's own transport::sutherland_viscosity so the manufactured
/// viscous sources can never drift from the model the solver actually
/// uses; the derivative is a tight central difference of the same
/// function (relative error ~1e-10, far below any discretization error
/// the studies measure).
struct MuDmu {
  double mu, dmu_dt;
};
MuDmu sutherland_with_derivative(double t) {
  const double mu = transport::sutherland_viscosity(t);
  const double dt = 1e-4 * t;
  const double dmu = (transport::sutherland_viscosity(t + dt) -
                      transport::sutherland_viscosity(t - dt)) /
                     (2.0 * dt);
  return {mu, dmu};
}
}  // namespace

std::array<double, 4> FvManufactured::thin_layer_flux_y(double x,
                                                        double y) const {
  const double uu = u.v(x, y), vv = v.v(x, y);
  const double uy = u.dy(x, y), vy = v.dy(x, y);
  const double r = rho.v(x, y), pp = p.v(x, y);
  const double t = pp / (r * r_gas);
  const double ty =
      (p.dy(x, y) * r - pp * rho.dy(x, y)) / (r * r * r_gas);
  const auto [mu, dmu] = sutherland_with_derivative(t);
  (void)dmu;
  const double cp = gamma * r_gas / (gamma - 1.0);
  const double k_cond = mu * cp / prandtl;
  const double fx = mu * uy;
  const double fr = (4.0 / 3.0) * mu * vy;
  return {0.0, fx, fr, fx * uu + fr * vv + k_cond * ty};
}

std::array<double, 4> FvManufactured::euler_source(double x, double y) const {
  const double r = rho.v(x, y), uu = u.v(x, y), vv = v.v(x, y),
               pp = p.v(x, y);
  const double rx = rho.dx(x, y), ry = rho.dy(x, y);
  const double ux = u.dx(x, y), uy = u.dy(x, y);
  const double vx = v.dx(x, y), vy = v.dy(x, y);
  const double px = p.dx(x, y), py = p.dy(x, y);

  const double q2 = uu * uu + vv * vv;
  const double w = gamma * pp / (gamma - 1.0) + 0.5 * r * q2;
  const double wx = gamma * px / (gamma - 1.0) + 0.5 * rx * q2 +
                    r * (uu * ux + vv * vx);
  const double wy = gamma * py / (gamma - 1.0) + 0.5 * ry * q2 +
                    r * (uu * uy + vv * vy);

  return {
      rx * uu + r * ux + ry * vv + r * vy,
      rx * uu * uu + 2.0 * r * uu * ux + px + ry * uu * vv +
          r * (uy * vv + uu * vy),
      rx * uu * vv + r * (ux * vv + uu * vx) + ry * vv * vv +
          2.0 * r * vv * vy + py,
      ux * w + uu * wx + vy * w + vv * wy,
  };
}

std::array<double, 4> FvManufactured::ns_source(double x, double y) const {
  std::array<double, 4> s = euler_source(x, y);

  const double r = rho.v(x, y), uu = u.v(x, y), vv = v.v(x, y),
               pp = p.v(x, y);
  const double ry = rho.dy(x, y), ryy = rho.dyy(x, y);
  const double uy = u.dy(x, y), uyy = u.dyy(x, y);
  const double vy = v.dy(x, y), vyy = v.dyy(x, y);
  const double py = p.dy(x, y), pyy = p.dyy(x, y);

  const double t = pp / (r * r_gas);
  const double ty = (py * r - pp * ry) / (r * r * r_gas);
  const double tyy = pyy / (r * r_gas) - 2.0 * py * ry / (r * r * r_gas) -
                     pp * ryy / (r * r * r_gas) +
                     2.0 * pp * ry * ry / (r * r * r * r_gas);
  const auto [mu, dmu] = sutherland_with_derivative(t);
  const double muy = dmu * ty;
  const double cp = gamma * r_gas / (gamma - 1.0);

  const double d_fx = muy * uy + mu * uyy;
  const double d_fr = (4.0 / 3.0) * (muy * vy + mu * vyy);
  const double d_fe = muy * uu * uy + mu * (uy * uy + uu * uyy) +
                      (4.0 / 3.0) * (muy * vv * vy + mu * (vy * vy + vv * vyy)) +
                      cp / prandtl * (muy * ty + mu * tyy);

  s[1] -= d_fx;
  s[2] -= d_fr;
  s[3] -= d_fe;
  return s;
}

FvManufactured supersonic_euler_field() {
  FvManufactured f;
  // Unit-square domain; every sin argument stays in (0.2, 1.45), a
  // monotone branch, so all four reconstructed primitives are monotone
  // along both sweep directions (see TrigField).
  f.rho = {1.0, 0.15, 0.55, 0.50, 0.25};
  f.p = {1.0e5, 0.6e4, 0.55, 0.50, 0.25};  // shares (k, phase) with rho
  f.u = {850.0, 60.0, 0.45, 0.55, 0.40};
  f.v = {120.0, 40.0, 0.60, 0.40, 0.20};
  return f;
}

FvManufactured viscous_ns_field() {
  FvManufactured f;
  // 1 cm domain at rarefied density: Reynolds number O(20), so the
  // thin-layer viscous fluxes carry an observable share of the balance.
  const double s = 100.0;  // wavenumber scale for the 0.01 m extent
  f.rho = {6.0e-5, 1.0e-5, 0.55 * s, 0.50 * s, 0.25};
  f.p = {6.0, 0.36, 0.55 * s, 0.50 * s, 0.25};
  f.u = {850.0, 60.0, 0.45 * s, 0.55 * s, 0.40};
  f.v = {120.0, 40.0, 0.60 * s, 0.40 * s, 0.20};
  return f;
}

double fv_domain_extent(const FvManufactured& f) {
  // Wavenumbers are scaled so (kx + ky) * extent stays in the monotone
  // window; the catalog fields encode the extent in rho.kx.
  return 0.55 / f.rho.kx;
}

double SpeciesManufactured::y(std::size_t s, double x, double yy) const {
  const double v0 = y0.v(x, yy);
  return s == 0 ? v0 : 1.0 - v0;
}

double SpeciesManufactured::flux_x(const FvManufactured& flow, std::size_t s,
                                   double x, double yy) const {
  return flow.rho.v(x, yy) * flow.u.v(x, yy) * y(s, x, yy);
}

double SpeciesManufactured::flux_y(const FvManufactured& flow, std::size_t s,
                                   double x, double yy) const {
  return flow.rho.v(x, yy) * flow.v.v(x, yy) * y(s, x, yy);
}

double SpeciesManufactured::source(const FvManufactured& flow, std::size_t s,
                                   double x, double yy) const {
  const double r = flow.rho.v(x, yy), uu = flow.u.v(x, yy),
               vv = flow.v.v(x, yy);
  const double div_m = flow.rho.dx(x, yy) * uu + r * flow.u.dx(x, yy) +
                       flow.rho.dy(x, yy) * vv + r * flow.v.dy(x, yy);
  const double sgn = s == 0 ? 1.0 : -1.0;  // y_1 = 1 - y_0
  return y(s, x, yy) * div_m +
         r * sgn * (uu * y0.dx(x, yy) + vv * y0.dy(x, yy));
}

SpeciesManufactured species_transport_field() {
  SpeciesManufactured sp;
  // Shares the supersonic field's monotone sin window (argument stays in
  // (0.35, 1.30) on the unit domain) so limiters never clip y_0, and the
  // amplitude keeps y_0 in [0.30, 0.60].
  sp.y0 = {0.45, 0.15, 0.50, 0.45, 0.35};
  return sp;
}

double MarchManufactured::f_profile(double eta) const {
  const double z = eta / eta_max;
  return z + a_f * std::sin(M_PI * z);
}
double MarchManufactured::g_profile(double eta) const {
  const double z = eta / eta_max;
  return g_w + (1.0 - g_w) * z + a_g * std::sin(M_PI * z);
}
double MarchManufactured::f_stream(double eta) const {
  const double z = eta / eta_max;
  return eta_max * (0.5 * z * z + a_f * (1.0 - std::cos(M_PI * z)) / M_PI);
}
double MarchManufactured::fp(double eta) const {
  const double z = eta / eta_max;
  return (1.0 + a_f * M_PI * std::cos(M_PI * z)) / eta_max;
}
double MarchManufactured::gp(double eta) const {
  const double z = eta / eta_max;
  return ((1.0 - g_w) + a_g * M_PI * std::cos(M_PI * z)) / eta_max;
}
double MarchManufactured::fpp(double eta) const {
  const double z = eta / eta_max;
  return -a_f * M_PI * M_PI * std::sin(M_PI * z) / (eta_max * eta_max);
}
double MarchManufactured::gpp(double eta) const {
  const double z = eta / eta_max;
  return -a_g * M_PI * M_PI * std::sin(M_PI * z) / (eta_max * eta_max);
}

double MarchManufactured::momentum_source(double eta, double beta) const {
  const double f = f_profile(eta);
  return -(fpp(eta) + f_stream(eta) * fp(eta) + beta * (1.0 - f * f));
}
double MarchManufactured::energy_source(double eta) const {
  return -(gpp(eta) + f_stream(eta) * gp(eta));
}

double MarchStreamwiseManufactured::ue(double s) const {
  return u0 + u1 * (s - s0);
}
double MarchStreamwiseManufactured::omega(double s) const {
  return omega0 + omega1 * (s - s0);
}
double MarchStreamwiseManufactured::xi(double s) const {
  const double fac = rho_c * mu_c * r_body * r_body;
  return 0.25 * fac * u0 * s0 +
         fac * (u0 * (s - s0) + 0.5 * u1 * (s - s0) * (s - s0));
}
double MarchStreamwiseManufactured::dxi_ds(double s) const {
  return rho_c * mu_c * r_body * r_body * ue(s);
}
double MarchStreamwiseManufactured::beta_eff(double s) const {
  return omega(s) * 2.0 * xi(s) * u1 / (dxi_ds(s) * ue(s));
}

double MarchStreamwiseManufactured::F(double eta, double s) const {
  const double z = eta / eta_max;
  return z + (a_f + a_x * std::sin(k_f * s + phase_f)) * std::sin(M_PI * z);
}
double MarchStreamwiseManufactured::g(double eta, double s) const {
  const double z = eta / eta_max;
  return g_w + (1.0 - g_w) * z +
         (a_g + a_gx * std::sin(k_g * s + phase_g)) * std::sin(M_PI * z);
}
double MarchStreamwiseManufactured::F_eta(double eta, double s) const {
  const double z = eta / eta_max;
  return (1.0 + (a_f + a_x * std::sin(k_f * s + phase_f)) * M_PI *
                    std::cos(M_PI * z)) /
         eta_max;
}
double MarchStreamwiseManufactured::F_etaeta(double eta, double s) const {
  const double z = eta / eta_max;
  return -(a_f + a_x * std::sin(k_f * s + phase_f)) * M_PI * M_PI *
         std::sin(M_PI * z) / (eta_max * eta_max);
}
double MarchStreamwiseManufactured::g_eta(double eta, double s) const {
  const double z = eta / eta_max;
  return ((1.0 - g_w) + (a_g + a_gx * std::sin(k_g * s + phase_g)) * M_PI *
                            std::cos(M_PI * z)) /
         eta_max;
}
double MarchStreamwiseManufactured::g_etaeta(double eta, double s) const {
  const double z = eta / eta_max;
  return -(a_g + a_gx * std::sin(k_g * s + phase_g)) * M_PI * M_PI *
         std::sin(M_PI * z) / (eta_max * eta_max);
}
double MarchStreamwiseManufactured::f_stream(double eta, double s) const {
  const double z = eta / eta_max;
  return eta_max * (0.5 * z * z + (a_f + a_x * std::sin(k_f * s + phase_f)) *
                                      (1.0 - std::cos(M_PI * z)) / M_PI);
}
double MarchStreamwiseManufactured::F_xi(double eta, double s) const {
  const double z = eta / eta_max;
  return a_x * k_f * std::cos(k_f * s + phase_f) * std::sin(M_PI * z) /
         dxi_ds(s);
}
double MarchStreamwiseManufactured::g_xi(double eta, double s) const {
  const double z = eta / eta_max;
  return a_gx * k_g * std::cos(k_g * s + phase_g) * std::sin(M_PI * z) /
         dxi_ds(s);
}
double MarchStreamwiseManufactured::f_stream_xi(double eta, double s) const {
  const double z = eta / eta_max;
  return eta_max * a_x * k_f * std::cos(k_f * s + phase_f) *
         (1.0 - std::cos(M_PI * z)) / (M_PI * dxi_ds(s));
}

double MarchStreamwiseManufactured::momentum_source(double eta, double s,
                                                    bool station0) const {
  const double Fv = F(eta, s);
  if (station0) {
    return -(F_etaeta(eta, s) + f_stream(eta, s) * F_eta(eta, s) +
             0.5 * (1.0 - Fv * Fv));
  }
  const double x = xi(s);
  const double conv = f_stream(eta, s) + x * f_stream_xi(eta, s);
  return -(F_etaeta(eta, s) + conv * F_eta(eta, s) +
           beta_eff(s) * (1.0 - Fv * Fv) - 2.0 * x * Fv * F_xi(eta, s));
}
double MarchStreamwiseManufactured::energy_source(double eta, double s,
                                                  bool station0) const {
  if (station0) {
    return -(g_etaeta(eta, s) + f_stream(eta, s) * g_eta(eta, s));
  }
  const double x = xi(s);
  const double conv = f_stream(eta, s) + x * f_stream_xi(eta, s);
  return -(g_etaeta(eta, s) + conv * g_eta(eta, s) -
           2.0 * x * F(eta, s) * g_xi(eta, s));
}

solvers::MarchEdge MarchStreamwiseManufactured::edge(double s) const {
  solvers::MarchEdge e;
  e.s = s;
  e.r = r_body;
  e.p_e = p_edge;
  e.ue = ue(s);
  e.due_ds = u1;
  e.h_e = h_total - 0.5 * e.ue * e.ue;
  e.rho_e = rho_c;
  e.mu_e = mu_c;
  e.t_e = e.h_e / cp;
  e.vigneron_omega = omega(s);
  return e;
}
double MarchStreamwiseManufactured::q_wall_exact(double s) const {
  const double metric = ue(s) * r_body / std::sqrt(2.0 * xi(s));
  return g_eta(0.0, s) * h_total * metric * rho_c * mu_c;
}

solvers::PropertyProvider make_constant_props(double rho_c, double mu_c,
                                              double cp) {
  return [=](double /*p*/, double h) {
    solvers::PhState st;
    st.rho = rho_c;
    st.t = h / cp;
    st.mu = mu_c;
    st.pr = 1.0;
    st.h = h;
    return st;
  };
}

}  // namespace cat::verify
