#pragma once
/// \file bench.hpp
/// Shared machinery of the CAT end-to-end benchmark: deterministic input
/// generation, latency summaries, the in-memory span recorder of the traced
/// run, reference-value checks and the result report.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace catbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time [s] of the calling thread / of the whole process. On a virtual
/// machine with paravirtual steal accounting these leave out the time the
/// hypervisor ran other guests, which otherwise swings wall-clock figures
/// by tens of percent from one minute to the next.
double thread_cpu_s();
double process_cpu_s();

/// Moves the calling thread to the next CPU it may run on, in turn
/// (starting \p first places along), and back to its original CPU set when
/// destroyed. The host's CPUs differ in speed by up to a third, and each
/// one's speed changes from minute to minute; a run whose threads stayed on
/// some CPUs would measure those, while one that rotates samples them all.
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t first = 0);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// splitmix64: the same stream for a seed on every platform and library,
/// so a seed names one input set for good.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// Median and tail of a latency sample. The tail is the highest percentile
/// with at least 10 samples beyond it (the 11th-largest value); with 10 or
/// fewer samples it falls back to the maximum and tail_pct reads 100.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

/// One recorded span of the traced run.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  ///< index of the enclosing span, -1 for a root
  std::uint64_t op;     ///< operation the span belongs to
};

/// In-memory span recorder (one per thread); spans are written out only
/// when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  std::int64_t begin(const char* name, std::uint64_t op);
  void end(std::int64_t idx);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration [s] of a closed span.
  double seconds(std::int64_t idx) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::uint64_t op)
      : t_(t), idx_(t->begin(name, op)) {}
  ~Scope() { t_->end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  std::int64_t idx_;
};

/// Per-name totals over a set of spans: calls, inclusive and self time.
struct SpanTotals {
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double mean_s() const { return calls ? total_s / static_cast<double>(calls) : 0.0; }
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

/// Append another recorder's spans, shifting their parent indices.
void append_spans(std::vector<Span>& into, const std::vector<Span>& from);

/// Write spans as one JSON array per line: [name, start_ns, end_ns,
/// parent, op]. Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Everything one run reports.
struct Report {
  std::map<std::string, double> e2e;    ///< units: main.cpp's metric tables
  std::map<std::string, double> layer;
  std::map<std::string, std::string> samples;  ///< percentile provenance
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool replay_ok = true;
  std::vector<std::string> failures;  ///< first few failure messages

  void fail(const std::string& why);
  void put_e2e(const std::string& name, double v) { e2e[name] = v; }
  void put_layer(const std::string& name, double v) { layer[name] = v; }
  /// Record a latency summary's provenance (percentile and sample count).
  void note(const std::string& name, const Summary& s);
};

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root (holds src/, data/, catbench/)
  std::string out_dir;     ///< results and span files
  std::string commit = "unknown";
};

/// Cold set-ups per run, each in a fresh process; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 9;

/// setup_s: runs kSetupRepeats fresh copies of this program with
/// --setup-only, in turn on each CPU, and returns the median of the CPU
/// times they report, each from process start (static initialisation, the
/// scenario registry) to the end of the workload's set-up.
double cold_setup_s(const Options& opt);

/// Captured reference values: key -> metric name -> value.
using References = std::map<std::string, std::map<std::string, double>>;
References load_references(const std::string& path);

/// Relative/absolute band for one output metric.
struct Band {
  const char* metric;
  double rel;
  double abs;
};

/// Check a case's outputs against its reference within the bands; every
/// output must also be finite. Returns an empty string when correct.
std::string check_outputs(const std::vector<cat::scenario::Metric>& got,
                          const std::map<std::string, double>* ref,
                          const std::vector<Band>& bands);

/// True when both metric lists hold the same names and bit-identical values.
bool same_bits(const std::vector<cat::scenario::Metric>& a,
               const std::vector<cat::scenario::Metric>& b);

/// Peak resident set size of this process [MB].
double peak_rss_mb();

/// Workload entry points (solve.cpp / serve.cpp). Each one sets up,
/// measures, checks and fills the report (setup_s aside).
void run_solve_workload(const Options& opt, Report& rep);
void run_serve_mix(const Options& opt, Report& rep);
bool is_solve_workload(const std::string& name);

/// The workload's set-up alone, for --setup-only: returns the process CPU
/// time [s] at its end, with everything it built still alive.
double solve_set_up_cpu_s(const Options& opt);
double serve_set_up_cpu_s(const Options& opt);

/// A stagnation-point case decomposed into the layer calls its runner
/// makes, with spans, plus the edge and equilibrium probes (solve.cpp).
/// Returns the runner's output metrics.
std::vector<cat::scenario::Metric> traced_stagnation(
    const cat::scenario::Case& c, Tracer& tr, std::uint64_t op);

/// Recompute the reference values of a solve workload's whole input
/// lattice, one worker per CPU, and write them to \p path (maintainer
/// step; see README).
int capture_references(const std::string& workload, const std::string& path);

double median_of(std::vector<double> v);

}  // namespace catbench
