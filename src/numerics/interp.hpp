#pragma once
/// \file interp.hpp
/// Interpolation utilities: piecewise-linear, monotone cubic (PCHIP), and
/// bilinear lookup on a regular 2-D grid. The bilinear table backs the fast
/// equilibrium EOS used inside the finite-volume solvers.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace cat::numerics {

/// Piecewise-linear interpolant on strictly increasing abscissae.
/// Evaluations outside the range clamp or extrapolate per `extrapolate`.
class LinearInterp {
 public:
  LinearInterp() = default;
  LinearInterp(std::vector<double> x, std::vector<double> y,
               bool extrapolate = false);

  double operator()(double x) const;
  /// Derivative dy/dx of the interpolant at x (piecewise constant).
  double derivative(double x) const;

  std::size_t size() const { return x_.size(); }
  std::span<const double> abscissae() const { return x_; }
  std::span<const double> ordinates() const { return y_; }

 private:
  std::vector<double> x_, y_;
  bool extrapolate_ = false;
  std::size_t locate(double x) const;
};

/// Monotone piecewise-cubic Hermite (PCHIP, Fritsch-Carlson slopes).
/// Preserves monotonicity of the data — essential when interpolating
/// thermodynamic tables where overshoot would produce unphysical states.
class Pchip {
 public:
  Pchip() = default;
  Pchip(std::vector<double> x, std::vector<double> y);

  double operator()(double x) const;
  double derivative(double x) const;

 private:
  std::vector<double> x_, y_, m_;  // m_ = endpoint slopes per node
  std::size_t locate(double x) const;
};

/// Bilinear interpolation on a regular (uniformly spaced) grid.
/// Values are stored row-major: v(i,j) = value at (x0 + i dx, y0 + j dy).
class BilinearTable {
 public:
  BilinearTable() = default;
  BilinearTable(double x0, double dx, std::size_t nx, double y0, double dy,
                std::size_t ny);

  double& at(std::size_t i, std::size_t j) { return v_[i * ny_ + j]; }
  double at(std::size_t i, std::size_t j) const { return v_[i * ny_ + j]; }

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  double xmin() const { return x0_; }
  double xmax() const { return x0_ + dx_ * static_cast<double>(nx_ - 1); }
  double ymin() const { return y0_; }
  double ymax() const { return y0_ + dy_ * static_cast<double>(ny_ - 1); }

  /// Cell and fractional offsets of a query point. Tables that share one
  /// grid (same origin, spacing and size) share the located cell, so a
  /// caller reading several of them pays for the search once.
  struct Cell {
    std::size_t i, j;
    double tx, ty;
  };
  /// Arguments are clamped to the table range. The cell index (not the
  /// fractional coordinate) is clamped to the last cell, so a query
  /// exactly on the last grid line lands in the final cell with t == 1 and
  /// reproduces the stored node value bit-exactly.
  Cell locate(double x, double y) const {
    const double fx =
        std::clamp((x - x0_) / dx_, 0.0, static_cast<double>(nx_ - 1));
    const double fy =
        std::clamp((y - y0_) / dy_, 0.0, static_cast<double>(ny_ - 1));
    const std::size_t i = std::min(static_cast<std::size_t>(fx), nx_ - 2);
    const std::size_t j = std::min(static_cast<std::size_t>(fy), ny_ - 2);
    return {i, j, fx - static_cast<double>(i), fy - static_cast<double>(j)};
  }
  /// Bilinear value in a located cell.
  double eval(const Cell& c) const {
    return (1 - c.tx) * (1 - c.ty) * at(c.i, c.j) +
           c.tx * (1 - c.ty) * at(c.i + 1, c.j) +
           (1 - c.tx) * c.ty * at(c.i, c.j + 1) +
           c.tx * c.ty * at(c.i + 1, c.j + 1);
  }
  /// Bilinear value at (x, y); arguments are clamped to the table range.
  /// Queries exactly on a grid line (including the upper edges and the
  /// far corner) reproduce the stored node values exactly.
  double operator()(double x, double y) const { return eval(locate(x, y)); }

 private:
  double x0_ = 0, dx_ = 1, y0_ = 0, dy_ = 1;
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<double> v_;
};

}  // namespace cat::numerics
