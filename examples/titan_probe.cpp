// Titan probe entry (the paper's Fig. 2/3 scenario, Ref. 15), driven
// through the scenario engine: the registry's `titan_probe_pulse` case
// integrates a 12 km/s entry into Titan's N2/CH4 atmosphere and computes
// the stagnation heating pulse — here with the batch pulse driver fanned
// out across all cores (results are bitwise identical to a serial run).

#include <cstdio>

#include "core/thread_pool.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace cat;

int main() {
  const scenario::Case* c = scenario::find_scenario("titan_probe_pulse");
  if (c == nullptr) {
    std::fprintf(stderr, "titan_probe_pulse missing from the registry\n");
    return 1;
  }

  scenario::RunOptions opt;
  opt.threads = core::ThreadPool::recommended_threads();
  const auto r = scenario::run_case(*c, opt);

  r.table.print();
  std::printf(
      "\npeak q_conv = %.1f W/cm^2 at t = %.0f s, peak q_rad = %.2f W/cm^2\n"
      "integrated heat load: %.1f kJ/cm^2\n"
      "%zu pulse points (%zu solved, %zu free-molecular, %zu skipped) "
      "on %zu threads in %.2f s\n",
      r.metric("peak_q_conv") / 1e4, r.metric("t_peak"),
      r.metric("peak_q_rad") / 1e4, r.metric("heat_load") / 1e7,
      static_cast<std::size_t>(r.metric("n_points")),
      static_cast<std::size_t>(r.metric("n_solved")),
      static_cast<std::size_t>(r.metric("n_free_molecular")),
      r.n_points_skipped, opt.threads, r.elapsed_seconds);
  return 0;
}
