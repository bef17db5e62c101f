// Performance: direct Gibbs minimization vs tabulated equilibrium EOS.
// This is the quantitative version of the paper's argument that
// "approximate, but usefully accurate, real-gas models ... are
// computationally more efficient, thus better suited to be coupled with
// multidimensional flow codes."

#include <benchmark/benchmark.h>

#include "gas/eos_table.hpp"
#include "gas/equilibrium.hpp"

using namespace cat;

namespace {

const gas::EquilibriumSolver& solver() {
  static const gas::EquilibriumSolver s(gas::make_air5(),
                                        {{"N2", 0.79}, {"O2", 0.21}});
  return s;
}

const gas::EquilibriumEosTable& table() {
  static const gas::EquilibriumEosTable t(solver(),
                                          {.rho_min = 1e-4,
                                           .rho_max = 10.0,
                                           .e_min = -3e5,
                                           .e_max = 3e7,
                                           .n_rho = 48,
                                           .n_e = 48});
  return t;
}

void direct_gibbs_tp(benchmark::State& state) {
  const auto& eq = solver();
  double t = 5000.0;
  for (auto _ : state) {
    const auto r = eq.solve_tp(t, 1.0e4);
    benchmark::DoNotOptimize(r.rho);
    t = t < 9000.0 ? t + 13.0 : 5000.0;  // defeat warm-start caching
  }
}

void direct_gibbs_rho_e(benchmark::State& state) {
  const auto& eq = solver();
  double e = 5e6;
  for (auto _ : state) {
    const auto r = eq.solve_rho_e(0.01, e);
    benchmark::DoNotOptimize(r.p);
    e = e < 2e7 ? e + 1e5 : 5e6;
  }
}

// solve_ph from a cold start: the first call of any stagnation solve.
void direct_gibbs_ph_cold(benchmark::State& state) {
  const auto& eq = solver();
  double h = 5e6;
  for (auto _ : state) {
    const auto r = eq.solve_ph(1.0e4, h);
    benchmark::DoNotOptimize(r.t);
    h = h < 2e7 ? h + 1e5 : 5e6;
  }
}

// solve_ph seeded by the previous state of an enthalpy sweep: the access
// pattern of the stagnation-line property table.
void direct_gibbs_ph_hinted(benchmark::State& state) {
  const auto& eq = solver();
  double h = 5e6;
  auto prev = eq.solve_ph(1.0e4, h);
  for (auto _ : state) {
    h = h < 2e7 ? h + 1e5 : 5e6;
    prev = eq.solve_ph(1.0e4, h, &prev);
    // A const copy: the read-write DoNotOptimize overload may route a
    // double through an integer register, which must not touch the hint.
    const double t = prev.t;
    benchmark::DoNotOptimize(t);
  }
}

void table_lookup(benchmark::State& state) {
  const auto& tab = table();
  double e = 5e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tab.pressure(0.01, e));
    benchmark::DoNotOptimize(tab.sound_speed(0.01, e));
    benchmark::DoNotOptimize(tab.temperature(0.01, e));
    e = e < 2e7 ? e + 1e5 : 5e6;
  }
}

}  // namespace

BENCHMARK(direct_gibbs_tp);
BENCHMARK(direct_gibbs_rho_e);
BENCHMARK(direct_gibbs_ph_cold);
BENCHMARK(direct_gibbs_ph_hinted);
BENCHMARK(table_lookup);
