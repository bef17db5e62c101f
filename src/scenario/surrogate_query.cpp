// Surrogate lookup hot path, split into its own translation unit so the
// whole TU sits on cat_lint's hot-path-alloc list and the operator-new
// counting tests (tests/test_workspace_alloc.cpp): serving a query is a
// bounds check, one cell location and four bilinear blends — no
// allocation anywhere but the off-table throw path.

#include "core/error.hpp"
#include "scenario/surrogate.hpp"

namespace cat::scenario {

const char* SurrogateTable::channel_name(std::size_t channel) {
  switch (channel) {
    case 0: return "q_conv";
    case 1: return "q_rad";
    case 2: return "t_stag";
    case 3: return "p_stag";
    default: break;
  }
  throw std::invalid_argument("SurrogateTable: bad channel index");
}

bool SurrogateTable::covers(double velocity_mps, double altitude_m) const {
  // Inclusive edges; NaN fails every comparison and is not covered.
  return velocity_mps >= domain_.velocity_min_mps &&
         velocity_mps <= domain_.velocity_max_mps &&
         altitude_m >= domain_.altitude_min_m &&
         altitude_m <= domain_.altitude_max_m;
}

SurrogateAnswer SurrogateTable::query(double velocity_mps,
                                      double altitude_m) const {
  if (!covers(velocity_mps, altitude_m))
    throw SolverError(
        "surrogate query off-table: the requested flight state lies "
        "outside the tabulated domain of '" + meta_.base_case +
        "' (no clamping — fall back to a correlation or a full solve)");
  // All four channel tables share the grid, so the cell is located once
  // and each channel pays only its blend.
  const auto cell = values_[0].locate(velocity_mps, altitude_m);
  const std::size_t k = cell.i * (domain_.n_altitude - 1) + cell.j;
  SurrogateAnswer a;
  a.q_conv_W_m2 = values_[0].eval(cell);
  a.q_conv_err_W_m2 = bounds_[0][k];
  a.q_rad_W_m2 = values_[1].eval(cell);
  a.q_rad_err_W_m2 = bounds_[1][k];
  a.t_stag_K = values_[2].eval(cell);
  a.t_stag_err_K = bounds_[2][k];
  a.p_stag_Pa = values_[3].eval(cell);
  a.p_stag_err_Pa = bounds_[3][k];
  return a;
}

}  // namespace cat::scenario
