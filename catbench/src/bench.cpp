#include "bench.hpp"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace catbench {

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.p50 = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n > 10) {
    s.tail = v[n - 11];
    s.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  } else {
    s.tail = v.back();
    s.tail_pct = 100.0;
  }
  return s;
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

CpuRotation::CpuRotation(std::size_t first) : at_(first) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);  // on failure the thread stays put
}

double median_of(std::vector<double> v) { return summarize(std::move(v)).p50; }

double cold_setup_s(const Options& opt) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot locate the catbench program");
  exe[len] = '\0';
  std::vector<std::string> args = {exe, "--setup-only", opt.workload, "--seed",
                                   std::to_string(opt.seed), "--root", opt.root};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> cpu;
  CpuRotation cpus;  // each set-up process starts on the next CPU
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    cpus.next();
    int fd[2];
    if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fd[0]);
    posix_spawn_file_actions_addclose(&fa, fd[1]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, exe, &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fd[1]);
    std::string out;
    char buf[256];
    for (ssize_t got; rc == 0 && (got = read(fd[0], buf, sizeof buf)) != 0;)
      if (got > 0) out.append(buf, static_cast<std::size_t>(got));
      else if (errno != EINTR) break;
    close(fd[0]);
    int status = 0;
    const bool exited = rc == 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    double v = 0.0;
    const char* last = out.data() + out.size();
    while (last > out.data() && last[-1] == '\n') --last;
    if (!exited || std::from_chars(out.data(), last, v).ptr != last || !(v > 0.0))
      throw std::runtime_error("set-up process failed");
    cpu.push_back(v);
  }
  return median_of(cpu);
}

std::int64_t Tracer::begin(const char* name, std::uint64_t op) {
  const auto now = Clock::now();
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      {name,
       std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count(),
       0, parent, op});
  const auto idx = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(idx);
  return idx;
}

void Tracer::end(std::int64_t idx) {
  const auto now = Clock::now();
  spans_[static_cast<std::size_t>(idx)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count();
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

double Tracer::seconds(std::int64_t idx) const {
  const Span& s = spans_[static_cast<std::size_t>(idx)];
  return 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_s[static_cast<std::size_t>(s.parent)] +=
          1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = 1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    SpanTotals& t = out[spans[i].name];
    ++t.calls;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

void append_spans(std::vector<Span>& into, const std::vector<Span>& from) {
  const auto base = static_cast<std::int64_t>(into.size());
  for (Span s : from) {
    if (s.parent >= 0) s.parent += base;
    into.push_back(s);
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans)
    std::fprintf(f, "[\"%s\", %lld, %lld, %lld, %llu]\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  return std::fclose(f) == 0;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::note(const std::string& name, const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "p50 and p%.6g of n=%zu", s.tail_pct, s.n);
  samples[name] = buf;
}

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key, field;
    ss >> key;
    auto& entry = refs[key];
    while (ss >> field) {
      const auto eq = field.find('=');
      double v = 0.0;
      const char* first = field.data() + eq + 1;
      const char* last = field.data() + field.size();
      if (eq == std::string::npos ||
          std::from_chars(first, last, v).ptr != last)
        throw std::runtime_error("malformed reference field '" + field +
                                 "' in " + path);
      entry[field.substr(0, eq)] = v;
    }
  }
  return refs;
}

std::string check_outputs(const std::vector<cat::scenario::Metric>& got,
                          const std::map<std::string, double>* ref,
                          const std::vector<Band>& bands) {
  for (const auto& m : got)
    if (!std::isfinite(m.value)) return "non-finite output " + m.name;
  if (ref == nullptr) return "no reference value for this input";
  for (const Band& b : bands) {
    const auto want = ref->find(b.metric);
    const auto have = std::find_if(got.begin(), got.end(), [&](const auto& m) {
      return m.name == b.metric;
    });
    if (want == ref->end() || have == got.end())
      return std::string("missing output ") + b.metric;
    const double tol = b.rel * std::fabs(want->second) + b.abs;
    if (!(std::fabs(have->value - want->second) <= tol)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s = %.9g outside %.9g +- %.3g",
                    b.metric, have->value, want->second, tol);
      return buf;
    }
  }
  return {};
}

bool same_bits(const std::vector<cat::scenario::Metric>& a,
               const std::vector<cat::scenario::Metric>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name) return false;
    // Bit equality, so -0.0/+0.0 and NaN payloads count as differences.
    if (std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0)
      return false;
  }
  return true;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace catbench
