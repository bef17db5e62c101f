// Geometry and grid tests: body parameterizations (arc length, curvature,
// tangency continuity), metric identities of the finite-volume grid
// (closed-surface sum, positive volumes), clustering behavior.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/body.hpp"
#include "grid/grid.hpp"

namespace {

using namespace cat;
using namespace cat::geometry;

TEST(Geometry, SphereParameterization) {
  Sphere s(0.5);
  const auto nose = s.at(0.0);
  EXPECT_NEAR(nose.x, 0.0, 1e-14);
  EXPECT_NEAR(nose.r, 0.0, 1e-14);
  EXPECT_NEAR(nose.theta, M_PI / 2.0, 1e-14);
  const auto equator = s.at(s.total_arc_length());
  EXPECT_NEAR(equator.x, 0.5, 1e-12);
  EXPECT_NEAR(equator.r, 0.5, 1e-12);
  EXPECT_NEAR(equator.theta, 0.0, 1e-12);
}

TEST(Geometry, SphereConeTangencyContinuity) {
  SphereCone sc(0.1, 30.0 * M_PI / 180.0, 0.8);
  // Position and angle continuous at the sphere-cone junction.
  const double s_t = 0.1 * (M_PI / 2.0 - 30.0 * M_PI / 180.0);
  const auto a = sc.at(s_t - 1e-9);
  const auto b = sc.at(s_t + 1e-9);
  EXPECT_NEAR(a.x, b.x, 1e-7);
  EXPECT_NEAR(a.r, b.r, 1e-7);
  EXPECT_NEAR(a.theta, b.theta, 1e-7);
  // Downstream of tangency the angle equals the cone half-angle.
  EXPECT_NEAR(sc.at(s_t + 0.1).theta, 30.0 * M_PI / 180.0, 1e-12);
}

TEST(Geometry, HyperboloidNoseRadiusAndAsymptote) {
  Hyperboloid h(1.3, 0.6, 30.0);
  EXPECT_NEAR(h.nose_radius(), 1.3, 1e-12);
  // Near the nose the surface is blunt (theta ~ 90 deg); far away it
  // approaches the asymptotic angle.
  EXPECT_NEAR(h.at(1e-6).theta, M_PI / 2.0, 0.05);
  const auto far = h.at(h.total_arc_length());
  EXPECT_NEAR(far.theta, 0.6, 0.05);
}

TEST(Geometry, HyperboloidArcLengthConsistency) {
  Hyperboloid h(0.5, 0.7, 10.0);
  // ds must equal sqrt(dx^2 + dr^2) along the generator.
  const double s1 = 2.0, ds = 1e-4;
  const auto a = h.at(s1), b = h.at(s1 + ds);
  const double dist =
      std::sqrt((b.x - a.x) * (b.x - a.x) + (b.r - a.r) * (b.r - a.r));
  EXPECT_NEAR(dist, ds, 0.02 * ds);
}

TEST(Geometry, HyperboloidStationPlacementInvertsArcLength) {
  // s_of_x is the exact inverse of x_of_s on the shared table: stations
  // placed by x land where asked, across the whole body and at its ends.
  Hyperboloid h(1.3, 0.68, 32.77);
  for (const double x : {0.0, 1e-4, 0.128, 1.0, 7.5, 20.0, 32.77}) {
    const double s = h.s_of_x(x);
    EXPECT_NEAR(h.x_of_s(s), x, 1e-12 * 32.77) << x;
    EXPECT_NEAR(h.at(s).x, x, 1e-12 * 32.77) << x;
  }
  EXPECT_EQ(h.s_of_x(0.0), 0.0);
  EXPECT_NEAR(h.s_of_x(32.77), h.total_arc_length(),
              1e-12 * h.total_arc_length());
  // Outside [0, length] there is no station: a loud error, not an
  // endpoint.
  EXPECT_THROW((void)h.s_of_x(-1e-9), std::invalid_argument);
  EXPECT_THROW((void)h.s_of_x(32.77 * (1.0 + 1e-12)), std::invalid_argument);
}

TEST(Geometry, BiconicBreaks) {
  Biconic bc(0.05, 0.35, 0.15, 0.4, 1.0);
  EXPECT_NEAR(bc.at(bc.total_arc_length()).theta, 0.15, 1e-12);
  // Radius grows monotonically.
  double prev = -1.0;
  for (double s = 0.0; s < bc.total_arc_length(); s += 0.02) {
    EXPECT_GT(bc.at(s).r, prev);
    prev = bc.at(s).r;
  }
}

TEST(Geometry, OrbiterOutlineSane) {
  OrbiterGeometry orb;
  EXPECT_NEAR(orb.length, 32.77, 1e-6);
  EXPECT_EQ(orb.x.size(), orb.z_windward.size());
  EXPECT_EQ(orb.x.size(), orb.half_width.size());
  // Half width peaks at the wing (aft), depth saturates mid-body.
  EXPECT_GT(orb.half_width.back(), orb.half_width[orb.x.size() / 2]);
}

TEST(Grid, TanhClusterEndpointsAndMonotonicity) {
  EXPECT_NEAR(grid::tanh_cluster(0.0, 2.0), 0.0, 1e-14);
  EXPECT_NEAR(grid::tanh_cluster(1.0, 2.0), 1.0, 1e-14);
  double prev = -1e-9;
  for (double u = 0.0; u <= 1.0; u += 0.05) {
    const double t = grid::tanh_cluster(u, 2.5);
    EXPECT_GT(t, prev);
    prev = t;
  }
  // Clustering: first interval smaller than uniform.
  EXPECT_LT(grid::tanh_cluster(0.1, 3.0), 0.1);
}

TEST(Grid, MetricsPositiveAndConsistent) {
  Sphere body(0.2);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 16, 12,
      [](double) { return 0.08; }, 1.5);
  for (std::size_t i = 0; i < g.ni(); ++i) {
    for (std::size_t j = 0; j < g.nj(); ++j) {
      EXPECT_GT(g.volume(i, j), 0.0);
      EXPECT_GT(g.area(i, j), 0.0);
    }
  }
}

TEST(Grid, FaceNormalsCloseEachCell) {
  // Sum of outward planar face normals of a closed 2-D polygon is zero:
  // check with the unweighted (planar) variant.
  Sphere body(0.2);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 10, 8,
      [](double) { return 0.06; }, 1.2, /*axisymmetric=*/false);
  for (std::size_t i = 0; i < g.ni(); ++i) {
    for (std::size_t j = 0; j < g.nj(); ++j) {
      const double sx = g.iface_nx(i + 1, j) - g.iface_nx(i, j) +
                        g.jface_nx(i, j + 1) - g.jface_nx(i, j);
      const double sr = g.iface_nr(i + 1, j) - g.iface_nr(i, j) +
                        g.jface_nr(i, j + 1) - g.jface_nr(i, j);
      EXPECT_NEAR(sx, 0.0, 1e-12);
      EXPECT_NEAR(sr, 0.0, 1e-12);
    }
  }
}

TEST(Grid, WallLineLiesOnBody) {
  SphereCone body(0.1, 0.5, 0.6);
  auto g = grid::make_normal_grid(body, body.total_arc_length() * 0.9, 20,
                                  10, [](double) { return 0.05; });
  for (std::size_t i = 0; i <= g.ni(); ++i) {
    const double s = body.total_arc_length() * 0.9 *
                     static_cast<double>(i) / static_cast<double>(g.ni());
    const auto p = body.at(s);
    EXPECT_NEAR(g.xn(i, 0), p.x, 1e-12);
    EXPECT_NEAR(g.rn(i, 0), p.r, 1e-12);
  }
}

TEST(Grid, EquivalentHyperboloidMatchesAlpha) {
  OrbiterGeometry orb;
  const auto h30 = orb.equivalent_hyperboloid(30.0 * M_PI / 180.0);
  const auto h40 = orb.equivalent_hyperboloid(40.0 * M_PI / 180.0);
  // Higher angle of attack -> fatter equivalent body.
  EXPECT_GT(h40.at(h40.total_arc_length() / 2).r,
            h30.at(h30.total_arc_length() / 2).r);
}

}  // namespace
