// catbench: the end-to-end CAT benchmark program.
//
//   catbench --workload <stag_sweep|neq_relax|fv_field|serve_mix> --seed N
//            --seconds S --trace 0|1 [--root DIR] [--out DIR] [--commit ID]
//   catbench --capture <solve workload> --ref FILE
//   catbench --setup-only <workload> --seed N [--root DIR]
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// The full result, with its run context, is also written under --out.
// --setup-only does the workload's set-up alone and prints the process CPU
// time from process start to its end; a run starts kSetupRepeats of these
// for setup_s.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "scenario/protocol.hpp"
#include "tools/arg_parse.hpp"

namespace {

using catbench::Report;

struct Named {
  const char* name;
  const char* unit;
};

constexpr Named kEndToEnd[] = {{"setup_s", "s"},
                               {"ops_per_s", "1/s"},
                               {"op_ms_p50", "ms"},
                               {"op_ms_tail", "ms"}};

// Every workload reports every per-layer metric; a layer the workload
// never calls reads 0.
constexpr Named kPerLayer[] = {
    {"gas.make_equilibrium.ms", "ms"},
    {"gas.equilibrium.solve_ph.us", "us"},
    {"gas.equilibrium.solve_ph.calls", "count"},
    {"gas.equilibrium.solve_tp.us", "us"},
    {"gas.equilibrium.solve_tp.calls", "count"},
    {"gas.equilibrium.solve_rho_e.us", "us"},
    {"gas.equilibrium.solve_rho_e.calls", "count"},
    {"gas.eos_table.build.ms", "ms"},
    {"gas.eos_table.lookup.ns", "ns"},
    {"solvers.stagnation.edge.ms", "ms"},
    {"solvers.stagnation.solve.ms", "ms"},
    {"solvers.stagnation.bl_rad.ms", "ms"},
    {"radiation.model_build.ms", "ms"},
    {"chemistry.mechanism_build.ms", "ms"},
    {"solvers.relax1d.frozen_jump.us", "us"},
    {"solvers.relax1d.solve.s", "s"},
    {"solvers.relax1d.rhs_evals", "count"},
    {"solvers.relax1d.us_per_rhs", "us"},
    {"chemistry.mass_production_rates.us", "us"},
    {"gas.two_temperature.vibronic_energy.us", "us"},
    {"grid.make_normal_grid.ms", "ms"},
    {"solvers.euler.iterations", "count"},
    {"solvers.euler.us_per_iter", "us"},
    {"solvers.euler.final_residual", "-"},
    {"solvers.euler.converged_ratio", "frac"},
    {"chemistry.batch.rates.us_per_cell", "us"},
    {"scenario.run_case.ms", "ms"},
    {"scenario.protocol.handle_line.us", "us"},
    {"scenario.server.serve.us", "us"},
    {"scenario.canonical_case_key.ns", "ns"},
    {"scenario.surrogate.query.ns", "ns"},
    {"solvers.correlations.us", "us"},
    {"core.job_queue.wait.us", "us"},
    {"scenario.server.requests", "count"},
    {"scenario.server.cache_hits", "count"},
    {"scenario.server.coalesced", "count"},
    {"scenario.server.served_surrogate", "count"},
    {"scenario.server.served_correlation", "count"},
    {"scenario.server.served_solve", "count"},
    {"scenario.server.errors", "count"},
    {"scenario.server.timeouts", "count"},
    {"scenario.server.hit_ratio", "frac"},
    {"scenario.surrogate.hit_ratio", "frac"},
    {"scenario.server.cache_entries", "count"},
    {"hit_us_p50", "us"},
    {"hit_us_tail", "us"},
    {"surrogate_us_p50", "us"},
    {"surrogate_us_tail", "us"},
    {"correlation_us_tail", "us"},
    {"solve_ms_p50", "ms"},
    {"error_frac", "frac"},
    {"peak_rss_mb", "MB"},
    {"trace.overhead_frac", "frac"},
    {"trace.probe_errors", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: catbench --workload W --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--out DIR] [--commit ID]\n"
               "       catbench --capture W --ref FILE\n"
               "       catbench --setup-only W --seed N [--root DIR]\n");
  return 2;
}

const char* unit_of(const std::string& name) {
  for (const Named& n : kEndToEnd)
    if (name == n.name) return n.unit;
  for (const Named& n : kPerLayer)
    if (name == n.name) return n.unit;
  return nullptr;
}

std::string json_metrics(const std::map<std::string, double>& m, const Named* names,
                         std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = m.find(names[i].name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", it == m.end() ? 0.0 : it->second);
    // Built by append: GCC 12's -Wrestrict misfires on literal + string&&.
    if (i) out += ", ";
    out += "\"";
    out += names[i].name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += names[i].unit;
    out += "\"}";
  }
  return out + "}";
}

std::string context_json(const catbench::Options& opt) {
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  namespace p = cat::scenario::protocol;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%ld", nproc);
  std::string out = "{\"commit\": \"" + p::json_escape(opt.commit) + "\", \"host\": \"" +
                    p::json_escape(host) + "\", \"nproc\": " + buf +
                    ", \"compiler\": \"" + p::json_escape(CATBENCH_COMPILER) +
                    "\", \"build_type\": \"" CATBENCH_BUILD_TYPE "\", \"workload\": \"" +
                    p::json_escape(opt.workload) + "\"";
  std::snprintf(buf, sizeof buf, ", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d}",
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  return out + buf;
}

}  // namespace

int main(int argc, char** argv) {
  catbench::Options opt;
  std::string capture, ref_path, setup_only;
  bool have_seed = false, have_seconds = false, have_trace = false;
  namespace tools = cat::tools;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    std::size_t seed = 0;
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      have_seed = tools::try_parse_size(v, 0, SIZE_MAX, &seed);
      opt.seed = seed;
    } else if (k == "--seconds") {
      have_seconds = tools::try_parse_double(v, 1e-3, 3600.0, &opt.seconds);
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (k == "--root") {
      opt.root = v;
    } else if (k == "--out") {
      opt.out_dir = v;
    } else if (k == "--commit") {
      opt.commit = v;
    } else if (k == "--capture") {
      capture = v;
    } else if (k == "--ref") {
      ref_path = v;
    } else if (k == "--setup-only") {
      setup_only = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

#ifndef NDEBUG
  std::fprintf(stderr, "catbench: refusing to run: assertions are enabled "
                       "(the library is not a Release build)\n");
  return 3;
#endif
  if (std::strcmp(CATBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "catbench: refusing to run against a %s build of "
                         "cat::core; configure with CMAKE_BUILD_TYPE=Release\n",
                 CATBENCH_BUILD_TYPE);
    return 3;
  }

  if (!capture.empty()) {
    if (ref_path.empty() || !catbench::is_solve_workload(capture)) return usage();
    return catbench::capture_references(capture, ref_path);
  }
  if (!setup_only.empty()) {
    opt.workload = setup_only;
    if (!have_seed) return usage();
    try {
      double cpu = 0.0;
      if (catbench::is_solve_workload(opt.workload))
        cpu = catbench::solve_set_up_cpu_s(opt);
      else if (opt.workload == "serve_mix")
        cpu = catbench::serve_set_up_cpu_s(opt);
      else
        return usage();
      std::printf("%.17g\n", cpu);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "catbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  if (!catbench::is_solve_workload(opt.workload) && opt.workload != "serve_mix")
    return usage();

  Report rep;
  try {
    rep.put_e2e("setup_s", catbench::cold_setup_s(opt));
    if (catbench::is_solve_workload(opt.workload))
      catbench::run_solve_workload(opt, rep);
    else
      catbench::run_serve_mix(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "catbench: %s\n", e.what());
    return 1;
  }
  rep.put_layer("error_frac", rep.attempted ? static_cast<double>(rep.failed) /
                                                  static_cast<double>(rep.attempted)
                                            : 1.0);
  rep.put_layer("peak_rss_mb", catbench::peak_rss_mb());
  for (const auto& m : {rep.e2e, rep.layer})
    for (const auto& [name, v] : m)
      if (unit_of(name) == nullptr || !std::isfinite(v)) {
        std::fprintf(stderr, "catbench: bad metric %s\n", name.c_str());
        return 1;
      }
  for (const auto& [name, v] : rep.e2e)
    if (v <= 0.0) rep.fail("end-to-end metric " + name + " is not positive");

  std::printf("context %s\n", context_json(opt).c_str());
  for (const auto& m : {rep.e2e, rep.layer})
    for (const auto& [name, v] : m) std::printf("%-40s %.6g %s\n", name.c_str(), v, unit_of(name));
  for (const auto& [name, s] : rep.samples) std::printf("samples %-32s %s\n", name.c_str(), s.c_str());
  for (const auto& f : rep.failures) std::printf("FAILED %s\n", f.c_str());

  const bool correct = rep.failed == 0 && rep.replay_ok && rep.attempted > 0;
  const std::string e2e = json_metrics(rep.e2e, kEndToEnd, std::size(kEndToEnd));
  const std::string layer = json_metrics(rep.layer, kPerLayer, std::size(kPerLayer));
  if (!opt.out_dir.empty()) {
    // One file per run (the stamp keeps repeated runs of a seed apart).
    const auto stamp = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count();
    const std::string path = opt.out_dir + "/result-" + opt.workload + "-s" +
                             std::to_string(opt.seed) + "-t" + (opt.trace ? "1" : "0") + "-" +
                             std::to_string(stamp) + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::string samples = "{";
      for (const auto& [name, s] : rep.samples)
        samples += (samples.size() > 1 ? ", \"" : "\"") + name + "\": \"" + s + "\"";
      std::fprintf(f,
                   "{\"context\": %s, \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                   "\"samples\": %s}, \"end_to_end\": %s, \"per_layer\": %s}\n",
                   context_json(opt).c_str(), correct ? "true" : "false", rep.attempted,
                   rep.failed, samples.c_str(), e2e.c_str(), opt.trace ? layer.c_str() : "{}");
      std::fclose(f);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", rep.attempted, rep.failed,
              opt.trace ? layer.c_str() : e2e.c_str());
  return 0;
}
