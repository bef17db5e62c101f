#pragma once
/// \file body.hpp
/// Axisymmetric body geometries for the flow solvers: sphere, sphere-cone,
/// hyperboloid (the classic "equivalent axisymmetric body" for the Orbiter
/// windward plane at angle of attack), biconic, plus the discretized
/// Orbiter profile of Fig. 5.
///
/// Bodies are parameterized by arc length s from the stagnation point and
/// return position (x, r), the local surface angle, and curvature — the
/// inputs the marching solvers (VSL/PNS/BL) need.

#include <string>
#include <vector>

namespace cat::geometry {

/// Point on an axisymmetric body generator.
struct SurfacePoint {
  double s;       ///< arc length from nose [m]
  double x;       ///< axial coordinate [m]
  double r;       ///< radius from axis [m]
  double theta;   ///< local surface inclination vs axis [rad]
  double curvature;  ///< d(theta)/ds [1/m]
};

/// Abstract axisymmetric body described by arc length.
class Body {
 public:
  virtual ~Body() = default;
  virtual SurfacePoint at(double s) const = 0;
  virtual double nose_radius() const = 0;
  virtual double total_arc_length() const = 0;
  virtual std::string name() const = 0;

  /// Uniform sampling of the generator (n points from 0 to s_max).
  std::vector<SurfacePoint> sample(std::size_t n, double s_max = -1.0) const;
};

/// Sphere of radius R (hemisphere forebody): s in [0, pi/2 R].
class Sphere final : public Body {
 public:
  explicit Sphere(double radius);
  SurfacePoint at(double s) const override;
  double nose_radius() const override { return radius_; }
  double total_arc_length() const override;
  std::string name() const override { return "sphere"; }

 private:
  double radius_;
};

/// Sphere-cone: spherical nose radius R_n blending into a cone of
/// half-angle theta_c, total axial length L.
class SphereCone final : public Body {
 public:
  SphereCone(double nose_radius, double cone_half_angle, double length);
  SurfacePoint at(double s) const override;
  double nose_radius() const override { return rn_; }
  double total_arc_length() const override { return s_max_; }
  std::string name() const override { return "sphere-cone"; }
  double cone_half_angle() const { return theta_c_; }

 private:
  double rn_, theta_c_, length_, s_tangent_, s_max_;
};

/// Hyperboloid of revolution with nose radius R_n and asymptotic half
/// angle theta_inf: r^2 = 2 R_n x tan^2(...) form; the standard
/// "equivalent axisymmetric body" for windward-plane Orbiter analyses
/// (Fig. 4).
class Hyperboloid final : public Body {
 public:
  Hyperboloid(double nose_radius, double asymptote_half_angle,
              double length);
  SurfacePoint at(double s) const override;
  double nose_radius() const override { return rn_; }
  double total_arc_length() const override { return s_max_; }
  std::string name() const override { return "hyperboloid"; }

  /// Axial station x for given arc length (monotone helper).
  double x_of_s(double s) const;
  /// Arc length at axial station \p x: the exact inverse of x_of_s over
  /// the same table (x_of_s(s_of_x(x)) == x to rounding). Throws
  /// std::invalid_argument outside [0, length].
  double s_of_x(double x) const;

 private:
  double rn_, theta_inf_, length_, s_max_;
  // Tabulated s(x) built at construction for fast inversion.
  std::vector<double> xs_, ss_, rs_;
};

/// Spherically blunted biconic (Gnoffo's PNS test shape).
class Biconic final : public Body {
 public:
  Biconic(double nose_radius, double angle_fore, double angle_aft,
          double length_fore, double length_total);
  SurfacePoint at(double s) const override;
  double nose_radius() const override { return rn_; }
  double total_arc_length() const override { return s_max_; }
  std::string name() const override { return "biconic"; }

 private:
  double rn_, th1_, th2_, l1_, l2_, s_tangent_, s_break_, s_max_;
  double x_tan_, r_tan_, x_break_, r_break_;
};

/// Discretized Space Shuttle Orbiter profile (Fig. 5): windward-centerline
/// longitudinal section and planform half-width, normalized by body length
/// L = 32.77 m. Good to the fidelity of the published outline drawings.
struct OrbiterGeometry {
  double length = 32.77;  ///< [m]

  /// Windward centerline z(x) (meters, x from nose), sampled.
  std::vector<double> x, z_windward, half_width;

  OrbiterGeometry();

  /// Equivalent axisymmetric body for windward-plane analysis at angle of
  /// attack alpha: hyperboloid matched to nose radius and effective cone
  /// angle (era-standard "axisymmetric analog").
  Hyperboloid equivalent_hyperboloid(double alpha_rad) const;
};

}  // namespace cat::geometry
