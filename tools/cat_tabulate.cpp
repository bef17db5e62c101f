// cat_tabulate — build a surrogate table for a stagnation-point scenario
// by batch-running the high-fidelity hierarchy over a velocity x altitude
// flight grid, and write it as a binary artifact that cat_run --table (and
// eventually cat_serve) can serve from.
//
//   cat_tabulate shuttle_stag_point --out data/shuttle.surrogate.bin
//       --v-range 3000:7500:7 --alt-range 45000:75000:7 --threads 4
//
// The builder samples a doubled grid (2n-1 per axis): the even samples
// become the table nodes, the odd ones probe the interpolation error so
// every cell carries an honest deviation bound. --json writes the bound
// statistics for CI regression gating (scripts/check_surrogate.py).
//
// Exit code 0 on success, 1 on usage errors, 2 when the build fails.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "arg_parse.hpp"
#include "core/thread_pool.hpp"
#include "io/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/surrogate.hpp"

using namespace cat;

namespace {

void print_usage() {
  std::printf(
      "usage: cat_tabulate <scenario> --out FILE [options]\n"
      "options:\n"
      "  --out FILE          write the binary surrogate table to FILE\n"
      "  --json FILE         write per-channel bound statistics as JSON\n"
      "  --v-range MIN:MAX:N velocity axis [m/s] (default 3000:7500:7)\n"
      "  --alt-range MIN:MAX:N altitude axis [m] (default 45000:75000:7)\n"
      "  --threads N         worker threads (0 = all cores; default 1)\n"
      "  --fidelity F        truth tier: smoke | nominal (default smoke)\n"
      "  --safety F          bound safety factor (default 2.0)\n");
}

struct AxisSpec {
  double min = 0.0, max = 0.0;
  std::size_t n = 0;
};

bool parse_axis(const std::string& spec, AxisSpec* out) {
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  // Full-string validated parses: "3000abc:7500:7" and "6000:7200:3x" are
  // rejected instead of silently truncating to their numeric prefixes.
  if (!tools::try_parse_double(spec.substr(0, c1), -1e9, 1e9, &out->min) ||
      !tools::try_parse_double(spec.substr(c1 + 1, c2 - c1 - 1), -1e9, 1e9,
                               &out->max) ||
      !tools::try_parse_size(spec.substr(c2 + 1), 2, 1u << 16, &out->n))
    return false;
  return out->max > out->min;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }

  std::string target, out_path, json_path;
  AxisSpec v_axis{3000.0, 7500.0, 7};
  AxisSpec alt_axis{45000.0, 75000.0, 7};
  std::size_t threads = 1;
  scenario::SurrogateBuildOptions opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto matches = [&](const char* flag) {
      const std::size_t n = std::strlen(flag);
      return arg == flag ||
             (arg.size() > n && arg.compare(0, n, flag) == 0 &&
              arg[n] == '=');
    };
    auto value = [&](const char* flag) -> std::string {
      const std::size_t n = std::strlen(flag);
      if (arg.size() > n && arg[n] == '=') return arg.substr(n + 1);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (matches("--out")) {
      out_path = value("--out");
    } else if (matches("--json")) {
      json_path = value("--json");
    } else if (matches("--v-range")) {
      if (!parse_axis(value("--v-range"), &v_axis)) {
        std::fprintf(stderr, "error: bad --v-range (need MIN:MAX:N, N>=2)\n");
        return 1;
      }
    } else if (matches("--alt-range")) {
      if (!parse_axis(value("--alt-range"), &alt_axis)) {
        std::fprintf(stderr,
                     "error: bad --alt-range (need MIN:MAX:N, N>=2)\n");
        return 1;
      }
    } else if (matches("--threads")) {
      threads = tools::parse_threads_arg(value("--threads"));
    } else if (matches("--fidelity")) {
      const std::string f = value("--fidelity");
      if (f == "smoke") {
        opt.truth_fidelity = scenario::Fidelity::kSmoke;
      } else if (f == "nominal") {
        opt.truth_fidelity = scenario::Fidelity::kNominal;
      } else {
        std::fprintf(stderr, "error: truth fidelity must be smoke|nominal\n");
        return 1;
      }
    } else if (matches("--safety")) {
      opt.safety_factor = tools::parse_double_arg("--safety",
                                                  value("--safety"), 1.0,
                                                  1e3);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 1;
    } else if (target.empty()) {
      target = arg;
    } else {
      std::fprintf(stderr, "error: more than one scenario named\n");
      return 1;
    }
  }

  if (target.empty() || out_path.empty()) {
    print_usage();
    return 1;
  }
  const scenario::Case* base = scenario::find_scenario(target);
  if (base == nullptr) {
    std::fprintf(stderr,
                 "error: unknown scenario '%s' (try cat_run --list)\n",
                 target.c_str());
    return 1;
  }
  if (threads == 0) threads = core::ThreadPool::recommended_threads();
  opt.threads = threads;

  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = v_axis.min;
  domain.velocity_max_mps = v_axis.max;
  domain.n_velocity = v_axis.n;
  domain.altitude_min_m = alt_axis.min;
  domain.altitude_max_m = alt_axis.max;
  domain.n_altitude = alt_axis.n;

  const std::size_t n_solves =
      (2 * v_axis.n - 1) * (2 * alt_axis.n - 1);
  std::printf(
      "tabulating '%s': %zu x %zu nodes over v [%g, %g] m/s x alt "
      "[%g, %g] m (%zu truth solves, %zu threads)\n",
      target.c_str(), v_axis.n, alt_axis.n, v_axis.min, v_axis.max,
      alt_axis.min, alt_axis.max, n_solves, threads);

  try {
    const auto table = scenario::build_surrogate(*base, domain, opt);
    table.save(out_path);
    std::printf("wrote %s\n", out_path.c_str());

    std::vector<std::pair<std::string, double>> stats;
    for (std::size_t ch = 0; ch < scenario::SurrogateTable::kNChannels;
         ++ch) {
      const std::string name = scenario::SurrogateTable::channel_name(ch);
      stats.emplace_back(name + "_max_bound", table.max_bound(ch));
      stats.emplace_back(name + "_mean_bound", table.mean_bound(ch));
      std::printf("  %-8s bound: max %.6g, mean %.6g\n", name.c_str(),
                  table.max_bound(ch), table.mean_bound(ch));
    }
    stats.emplace_back("n_cells", static_cast<double>(table.n_cells()));
    if (!json_path.empty()) io::write_json(io::to_json(stats), json_path);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 2;
  }
  return 0;
}
