#include "numerics/interp.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cat::numerics {

namespace {
void check_monotone(std::span<const double> x) {
  CAT_REQUIRE(x.size() >= 2, "need at least two nodes");
  for (std::size_t i = 1; i < x.size(); ++i)
    CAT_REQUIRE(x[i] > x[i - 1], "abscissae must be strictly increasing");
}
}  // namespace

LinearInterp::LinearInterp(std::vector<double> x, std::vector<double> y,
                           bool extrapolate)
    : x_(std::move(x)), y_(std::move(y)), extrapolate_(extrapolate) {
  CAT_REQUIRE(x_.size() == y_.size(), "x/y size mismatch");
  check_monotone(x_);
}

std::size_t LinearInterp::locate(double x) const {
  // Index of left node of the containing interval, clamped to [0, n-2].
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  const std::ptrdiff_t idx = std::distance(x_.begin(), it) - 1;
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(x_.size()) - 2));
}

double LinearInterp::operator()(double x) const {
  if (!extrapolate_) x = std::clamp(x, x_.front(), x_.back());
  const std::size_t i = locate(x);
  const double t = (x - x_[i]) / (x_[i + 1] - x_[i]);
  return y_[i] + t * (y_[i + 1] - y_[i]);
}

double LinearInterp::derivative(double x) const {
  const std::size_t i = locate(std::clamp(x, x_.front(), x_.back()));
  return (y_[i + 1] - y_[i]) / (x_[i + 1] - x_[i]);
}

Pchip::Pchip(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  CAT_REQUIRE(x_.size() == y_.size(), "x/y size mismatch");
  check_monotone(x_);
  const std::size_t n = x_.size();
  std::vector<double> h(n - 1), delta(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    h[i] = x_[i + 1] - x_[i];
    delta[i] = (y_[i + 1] - y_[i]) / h[i];
  }
  m_.assign(n, 0.0);
  // Fritsch-Carlson: harmonic-mean interior slopes; zero at local extrema.
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (delta[i - 1] * delta[i] > 0.0) {
      const double w1 = 2.0 * h[i] + h[i - 1];
      const double w2 = h[i] + 2.0 * h[i - 1];
      m_[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
    }
  }
  // One-sided endpoint slopes (shape-preserving three-point formula).
  auto endpoint = [](double h0, double h1, double d0, double d1) {
    double m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if (m * d0 <= 0.0) {
      m = 0.0;
    } else if (d0 * d1 <= 0.0 && std::fabs(m) > 3.0 * std::fabs(d0)) {
      m = 3.0 * d0;
    }
    return m;
  };
  if (n == 2) {
    m_[0] = m_[1] = delta[0];
  } else {
    m_[0] = endpoint(h[0], h[1], delta[0], delta[1]);
    m_[n - 1] = endpoint(h[n - 2], h[n - 3], delta[n - 2], delta[n - 3]);
  }
}

std::size_t Pchip::locate(double x) const {
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  const std::ptrdiff_t idx = std::distance(x_.begin(), it) - 1;
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(x_.size()) - 2));
}

double Pchip::operator()(double x) const {
  x = std::clamp(x, x_.front(), x_.back());
  const std::size_t i = locate(x);
  const double h = x_[i + 1] - x_[i];
  const double t = (x - x_[i]) / h;
  const double t2 = t * t, t3 = t2 * t;
  const double h00 = 2 * t3 - 3 * t2 + 1;
  const double h10 = t3 - 2 * t2 + t;
  const double h01 = -2 * t3 + 3 * t2;
  const double h11 = t3 - t2;
  return h00 * y_[i] + h10 * h * m_[i] + h01 * y_[i + 1] + h11 * h * m_[i + 1];
}

double Pchip::derivative(double x) const {
  x = std::clamp(x, x_.front(), x_.back());
  const std::size_t i = locate(x);
  const double h = x_[i + 1] - x_[i];
  const double t = (x - x_[i]) / h;
  const double t2 = t * t;
  const double dh00 = (6 * t2 - 6 * t) / h;
  const double dh10 = 3 * t2 - 4 * t + 1;
  const double dh01 = (-6 * t2 + 6 * t) / h;
  const double dh11 = 3 * t2 - 2 * t;
  return dh00 * y_[i] + dh10 * m_[i] + dh01 * y_[i + 1] + dh11 * m_[i + 1];
}

BilinearTable::BilinearTable(double x0, double dx, std::size_t nx, double y0,
                             double dy, std::size_t ny)
    : x0_(x0), dx_(dx), y0_(y0), dy_(dy), nx_(nx), ny_(ny), v_(nx * ny, 0.0) {
  CAT_REQUIRE(nx >= 2 && ny >= 2, "table needs at least 2x2 nodes");
  CAT_REQUIRE(dx > 0.0 && dy > 0.0, "spacings must be positive");
}

}  // namespace cat::numerics
