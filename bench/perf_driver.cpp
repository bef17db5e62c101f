// Performance: the scenario engine's batch heating-pulse driver, serial
// vs thread-pool execution of one Titan heating pulse (the Fig. 2
// workload). The pulse points are independent stagnation solves, so the
// threaded driver should approach linear scaling on a multicore machine
// (PR 2's thread-local workspaces made the solver stack reentrant);
// scripts/bench_compare.py --intra pulse_serial:pulse_threaded:<factor>
// gates the speedup on records from machines with enough cores.

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/thread_pool.hpp"
#include "gas/constants.hpp"
#include "scenario/pulse.hpp"

using namespace cat;

namespace {

// Shared fixture: trajectory + solver built once (construction is not the
// thing under test).
struct PulseFixture {
  gas::EquilibriumSolver eq{gas::make_titan(),
                            {{"N2", 0.95}, {"CH4", 0.05}}};
  solvers::StagnationLineSolver stag;
  std::vector<trajectory::TrajectoryPoint> traj;

  PulseFixture()
      : stag(eq, [] {
          solvers::StagnationOptions sopt;
          sopt.n_table = 24;
          sopt.n_spectral = 64;
          sopt.n_slab = 24;
          return sopt;
        }()) {
    atmosphere::TitanAtmosphere atmo;
    trajectory::TrajectoryOptions topt;
    topt.dt_sample_s = 2.0;
    topt.end_velocity_mps = 3000.0;
    traj = trajectory::integrate_entry(
        trajectory::titan_probe(), {12000.0, -24.0 * M_PI / 180.0, 600000.0},
        atmo, gas::constants::kTitanRadius, gas::constants::kTitanG0, topt);
  }

  static const PulseFixture& get() {
    static const PulseFixture f;
    return f;
  }
};

scenario::PulseResult run_pulse(std::size_t threads) {
  const auto& f = PulseFixture::get();
  scenario::PulseOptions opt;
  opt.max_points = 24;
  opt.wall_temperature_K = 1800.0;
  opt.threads = threads;
  return scenario::heating_pulse(f.traj, trajectory::titan_probe(), f.stag,
                                 opt);
}

void pulse_serial(benchmark::State& state) {
  for (auto _ : state) {
    const auto pulse = run_pulse(1);
    benchmark::DoNotOptimize(pulse.points.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void pulse_threaded(benchmark::State& state) {
  const std::size_t threads = core::ThreadPool::recommended_threads();
  for (auto _ : state) {
    const auto pulse = run_pulse(threads);
    benchmark::DoNotOptimize(pulse.points.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(pulse_serial)->Unit(benchmark::kMillisecond);
BENCHMARK(pulse_threaded)->Unit(benchmark::kMillisecond);
