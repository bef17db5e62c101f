#include "geometry/body.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cat::geometry {

std::vector<SurfacePoint> Body::sample(std::size_t n, double s_max) const {
  CAT_REQUIRE(n >= 2, "need at least two sample points");
  if (s_max <= 0.0) s_max = total_arc_length();
  std::vector<SurfacePoint> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back(at(s_max * static_cast<double>(i) /
                     static_cast<double>(n - 1)));
  return pts;
}

Sphere::Sphere(double radius) : radius_(radius) {
  CAT_REQUIRE(radius > 0.0, "radius must be positive");
}

double Sphere::total_arc_length() const { return 0.5 * M_PI * radius_; }

SurfacePoint Sphere::at(double s) const {
  CAT_REQUIRE(s >= 0.0, "arc length must be non-negative");
  const double phi = s / radius_;  // angle from stagnation point
  SurfacePoint p;
  p.s = s;
  p.x = radius_ * (1.0 - std::cos(phi));
  p.r = radius_ * std::sin(phi);
  // Surface inclination versus the axis: 90 deg at the nose, decreasing.
  p.theta = 0.5 * M_PI - phi;
  p.curvature = -1.0 / radius_;
  return p;
}

SphereCone::SphereCone(double nose_radius, double cone_half_angle,
                       double length)
    : rn_(nose_radius), theta_c_(cone_half_angle), length_(length) {
  CAT_REQUIRE(rn_ > 0.0, "nose radius must be positive");
  CAT_REQUIRE(theta_c_ > 0.0 && theta_c_ < 0.5 * M_PI, "bad cone angle");
  // Tangency at sphere angle phi_t = pi/2 - theta_c.
  s_tangent_ = rn_ * (0.5 * M_PI - theta_c_);
  const double x_tan = rn_ * (1.0 - std::sin(theta_c_));
  CAT_REQUIRE(length > x_tan, "cone shorter than nose");
  const double cone_axial = length - x_tan;
  s_max_ = s_tangent_ + cone_axial / std::cos(theta_c_);
}

SurfacePoint SphereCone::at(double s) const {
  CAT_REQUIRE(s >= 0.0, "arc length must be non-negative");
  SurfacePoint p;
  p.s = s;
  if (s <= s_tangent_) {
    const double phi = s / rn_;
    p.x = rn_ * (1.0 - std::cos(phi));
    p.r = rn_ * std::sin(phi);
    p.theta = 0.5 * M_PI - phi;
    p.curvature = -1.0 / rn_;
  } else {
    const double phi_t = 0.5 * M_PI - theta_c_;
    const double ds = s - s_tangent_;
    const double x_tan = rn_ * (1.0 - std::cos(phi_t));
    const double r_tan = rn_ * std::sin(phi_t);
    p.x = x_tan + ds * std::cos(theta_c_);
    p.r = r_tan + ds * std::sin(theta_c_);
    p.theta = theta_c_;
    p.curvature = 0.0;
  }
  return p;
}

Hyperboloid::Hyperboloid(double nose_radius, double asymptote_half_angle,
                         double length)
    : rn_(nose_radius), theta_inf_(asymptote_half_angle), length_(length) {
  CAT_REQUIRE(rn_ > 0.0, "nose radius must be positive");
  CAT_REQUIRE(theta_inf_ > 0.0 && theta_inf_ < 0.5 * M_PI, "bad asymptote");
  CAT_REQUIRE(length_ > 0.0, "length must be positive");
  // r(x) = tan(theta) sqrt(x^2 + 2 a x), a = R_n / tan^2(theta):
  // osculating nose radius R_n at x=0, asymptote slope tan(theta).
  const double tt = std::tan(theta_inf_);
  const double a = rn_ / (tt * tt);
  const std::size_t n = 4000;
  xs_.resize(n);
  rs_.resize(n);
  ss_.resize(n);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = length_ * std::pow(static_cast<double>(i) /
                                        static_cast<double>(n - 1), 2.0);
    const double r = tt * std::sqrt(std::max(x * x + 2.0 * a * x, 0.0));
    if (i > 0) {
      const double dx = x - xs_[i - 1];
      const double dr = r - rs_[i - 1];
      s += std::sqrt(dx * dx + dr * dr);
    }
    xs_[i] = x;
    rs_[i] = r;
    ss_[i] = s;
  }
  s_max_ = s;
}

double Hyperboloid::x_of_s(double s) const {
  s = std::clamp(s, 0.0, s_max_);
  const auto it = std::lower_bound(ss_.begin(), ss_.end(), s);
  const std::size_t i =
      std::min<std::size_t>(std::max<std::ptrdiff_t>(it - ss_.begin(), 1),
                            ss_.size() - 1);
  const double w = (s - ss_[i - 1]) / std::max(ss_[i] - ss_[i - 1], 1e-30);
  return xs_[i - 1] + w * (xs_[i] - xs_[i - 1]);
}

double Hyperboloid::s_of_x(double x) const {
  CAT_REQUIRE(x >= 0.0 && x <= length_,
              "axial station outside the hyperboloid [0, length]");
  const auto it = std::lower_bound(xs_.begin(), xs_.end(), x);
  const std::size_t i =
      std::min<std::size_t>(std::max<std::ptrdiff_t>(it - xs_.begin(), 1),
                            xs_.size() - 1);
  const double w = (x - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
  return ss_[i - 1] + w * (ss_[i] - ss_[i - 1]);
}

SurfacePoint Hyperboloid::at(double s) const {
  CAT_REQUIRE(s >= 0.0, "arc length must be non-negative");
  s = std::clamp(s, 0.0, s_max_);
  const double x = x_of_s(s);
  const double tt = std::tan(theta_inf_);
  const double a = rn_ / (tt * tt);
  const double r = tt * std::sqrt(std::max(x * x + 2.0 * a * x, 0.0));
  SurfacePoint p;
  p.s = s;
  p.x = x;
  p.r = r;
  // dr/dx = tt (x + a)/sqrt(x^2+2ax); theta = angle of surface vs axis:
  // tan(theta_surface) = dr/dx -> but near nose dr/dx -> infinity (surface
  // perpendicular to axis), consistent with theta -> pi/2.
  if (x < 1e-12) {
    p.theta = 0.5 * M_PI;
    p.curvature = -1.0 / rn_;
  } else {
    const double root = std::sqrt(x * x + 2.0 * a * x);
    const double drdx = tt * (x + a) / root;
    p.theta = std::atan(drdx);
    // curvature of r(x): kappa = r'' / (1 + r'^2)^{3/2} (signed).
    const double d2rdx2 = tt * (root - (x + a) * (x + a) / root) /
                          (x * x + 2.0 * a * x);
    p.curvature = d2rdx2 / std::pow(1.0 + drdx * drdx, 1.5);
  }
  return p;
}

Biconic::Biconic(double nose_radius, double angle_fore, double angle_aft,
                 double length_fore, double length_total)
    : rn_(nose_radius), th1_(angle_fore), th2_(angle_aft), l1_(length_fore),
      l2_(length_total) {
  CAT_REQUIRE(rn_ > 0.0 && th1_ > th2_ && th2_ > 0.0, "bad biconic");
  CAT_REQUIRE(l2_ > l1_ && l1_ > 0.0, "bad biconic lengths");
  const double phi_t = 0.5 * M_PI - th1_;
  s_tangent_ = rn_ * phi_t;
  x_tan_ = rn_ * (1.0 - std::sin(th1_));
  r_tan_ = rn_ * std::cos(th1_);
  CAT_REQUIRE(l1_ > x_tan_, "fore cone shorter than nose");
  s_break_ = s_tangent_ + (l1_ - x_tan_) / std::cos(th1_);
  x_break_ = l1_;
  r_break_ = r_tan_ + (l1_ - x_tan_) * std::tan(th1_);
  s_max_ = s_break_ + (l2_ - l1_) / std::cos(th2_);
}

SurfacePoint Biconic::at(double s) const {
  CAT_REQUIRE(s >= 0.0, "arc length must be non-negative");
  SurfacePoint p;
  p.s = s;
  if (s <= s_tangent_) {
    const double phi = s / rn_;
    p.x = rn_ * (1.0 - std::cos(phi));
    p.r = rn_ * std::sin(phi);
    p.theta = 0.5 * M_PI - phi;
    p.curvature = -1.0 / rn_;
  } else if (s <= s_break_) {
    const double ds = s - s_tangent_;
    p.x = x_tan_ + ds * std::cos(th1_);
    p.r = r_tan_ + ds * std::sin(th1_);
    p.theta = th1_;
    p.curvature = 0.0;
  } else {
    const double ds = s - s_break_;
    p.x = x_break_ + ds * std::cos(th2_);
    p.r = r_break_ + ds * std::sin(th2_);
    p.theta = th2_;
    p.curvature = 0.0;
  }
  return p;
}

OrbiterGeometry::OrbiterGeometry() {
  // Normalized outline of the Orbiter (windward centerline depth and
  // planform half width vs x/L), digitized from published three-views at
  // drawing fidelity. z is depth below the nose reference line.
  const std::vector<double> xl = {0.0,  0.01, 0.03, 0.06, 0.10, 0.15, 0.20,
                                  0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90,
                                  1.00};
  const std::vector<double> zl = {0.000, 0.014, 0.028, 0.040, 0.050, 0.058,
                                  0.064, 0.072, 0.076, 0.078, 0.078, 0.078,
                                  0.078, 0.078, 0.078};
  const std::vector<double> wl = {0.000, 0.016, 0.030, 0.045, 0.060, 0.072,
                                  0.082, 0.098, 0.110, 0.120, 0.150, 0.220,
                                  0.290, 0.330, 0.360};
  x.resize(xl.size());
  z_windward.resize(xl.size());
  half_width.resize(xl.size());
  for (std::size_t i = 0; i < xl.size(); ++i) {
    x[i] = xl[i] * length;
    z_windward[i] = zl[i] * length;
    half_width[i] = wl[i] * length;
  }
}

Hyperboloid OrbiterGeometry::equivalent_hyperboloid(double alpha_rad) const {
  // Era-standard equivalent body: nose radius ~1.3 m; asymptotic half
  // angle = windward surface slope relative to the wind = alpha minus the
  // mild boattail of the windward line (~ -1 deg aft of x/L ~ 0.3).
  const double rn = 1.30;
  const double theta = std::max(alpha_rad - 0.02, 0.10);
  return Hyperboloid(rn, theta, length);
}

}  // namespace cat::geometry
