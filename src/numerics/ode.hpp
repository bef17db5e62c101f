#pragma once
/// \file ode.hpp
/// ODE integrators: explicit RK4, adaptive RKF45, and an implicit stiff
/// integrator (backward Euler / BDF2 with modified Newton).
///
/// CAT needs all three regimes (paper, "STATUS OF CAT"): trajectories and
/// inviscid relaxation are non-stiff; finite-rate chemistry spans rate
/// scales "many orders of magnitude wider than the mean-flow time scale" —
/// the single most complicating factor — and demands an implicit method.
///
/// Hot-path convention: StiffIntegrator has a span-based integrate overload
/// taking a caller-owned StiffWorkspace, so repeated integrations (one per
/// reactor advance / operator-split cell) reuse the Jacobian, Newton and LU
/// storage and allocate nothing in the stepping loop.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "numerics/linalg.hpp"

namespace cat::numerics {

/// Right-hand side f(t, y, dy/dt). dydt is preallocated to y.size().
using OdeRhs =
    std::function<void(double t, std::span<const double> y, std::span<double> dydt)>;

/// Analytic Jacobian J = df/dy (optional for the stiff integrator; a
/// finite-difference Jacobian is used when absent).
using OdeJacobian =
    std::function<void(double t, std::span<const double> y, Matrix& jac)>;

/// One classical 4th-order Runge-Kutta step from t to t+h (y updated).
void rk4_step(const OdeRhs& f, double t, double h, std::vector<double>& y);

/// Integrate from t0 to t1 with fixed-step RK4 (nsteps steps).
void integrate_rk4(const OdeRhs& f, double t0, double t1, std::size_t nsteps,
                   std::vector<double>& y);

/// Options for the adaptive integrators.
struct AdaptiveOptions {
  double rel_tol = 1e-8;
  double abs_tol = 1e-10;
  double h_initial = 0.0;     ///< 0 => (t1-t0)/100
  double h_min = 0.0;         ///< 0 => 1e-14 * |t1-t0|
  std::size_t max_steps = 2'000'000;
};

/// Dense observer: called after every accepted step with (t, y).
using OdeObserver = std::function<void(double t, std::span<const double> y)>;

/// Adaptive Runge-Kutta-Fehlberg 4(5). Returns the number of accepted steps.
/// Throws cat::SolverError when the step size underflows or max_steps is hit.
std::size_t integrate_rkf45(const OdeRhs& f, double t0, double t1,
                            std::vector<double>& y,
                            const AdaptiveOptions& opt = {},
                            const OdeObserver& observer = nullptr);

/// Options for StiffIntegrator (namespace scope so it can serve as a
/// default argument; GCC requires nested-class member initializers to be
/// complete before such use).
struct StiffOptions {
  double rel_tol = 1e-6;
  double abs_tol = 1e-12;
  double h_initial = 1e-10;
  double h_max = 0.0;          ///< 0 => no cap
  std::size_t max_steps = 500'000;
  std::size_t max_newton = 12;
  bool use_bdf2 = true;        ///< second order after startup
  /// Forced step size for the verification harness: when positive the
  /// integrator takes uniform steps of exactly this size (final step
  /// clipped to t1) with local-error control disabled, so observed-order
  /// studies can halve the step on a ladder. A Newton failure is then a
  /// hard error instead of a step-size retreat.
  double fixed_step = 0.0;
};

/// Reusable scratch state for StiffIntegrator: Jacobian and Newton
/// iteration matrices, LU pivots, stage vectors, and finite-difference
/// Jacobian buffers. Hold one per integration context and pass it to the
/// span-based integrate overload: every allocation then happens at most
/// once (first use / growth), and repeated integrations — e.g. one per
/// reactor advance or per operator-split cell — run allocation-free.
struct StiffWorkspace {
  Matrix jac, iter_matrix;
  std::vector<double> fval, res, ynew, yprev, lu_scratch;
  std::vector<double> fd_yp, fd_f0, fd_f1;  // finite-difference Jacobian
  std::vector<std::size_t> piv;

  /// Ensure capacity for an n-dimensional system (no-op when sized).
  void resize(std::size_t n);
};

/// Implicit stiff integrator for chemical-kinetics source terms: backward
/// Euler for the first step, then variable-step BDF2, each step solved by a
/// modified Newton iteration on alpha0 I - h J (factored once per solve).
///
/// Step-size control: an adaptive step starts Newton from the history
/// extrapolation y_n + r (y_n - y_{n-1}), r = h/h_prev, and the distance of
/// the converged solution from that predictor is the truncation estimate.
/// A step whose estimate err exceeds the tolerance scale is rejected and
/// retried with h scaled by 0.9/cbrt(err) clamped to [0.1, 0.9]; after an
/// accepted step the same factor, clamped to [0.3, 2.2], sets the next h.
/// Newton converges when the scaled residual falls below 1e-2 of the
/// tolerance scale.
///
/// Jacobian policy: one Jacobian (analytic when given, else forward
/// differences) per integrate call, reused across steps. When Newton with
/// a Jacobian from an earlier state fails to converge or contracts slower
/// than 0.5 per iteration, the Jacobian is re-evaluated at the current
/// state and the same h retried; only a failure with a current Jacobian
/// shrinks h by 4 (or, on forced steps, throws).
class StiffIntegrator {
 public:
  using Options = StiffOptions;

  StiffIntegrator(OdeRhs f, OdeJacobian jac = nullptr, Options opt = {});

  /// Integrate y from t0 to t1 in place. Span-based fast path: with a
  /// caller-owned workspace the inner loop performs zero heap allocations
  /// (given an allocation-free RHS). Returns accepted step count.
  std::size_t integrate(double t0, double t1, std::span<double> y,
                        StiffWorkspace& ws,
                        const OdeObserver& observer = nullptr) const;

  /// Convenience overload with a per-call workspace.
  std::size_t integrate(double t0, double t1, std::vector<double>& y,
                        const OdeObserver& observer = nullptr) const;

 private:
  OdeRhs f_;
  OdeJacobian jac_;
  Options opt_;

  void numerical_jacobian(double t, std::span<const double> y,
                          StiffWorkspace& ws) const;
};

}  // namespace cat::numerics
