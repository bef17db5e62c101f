// serve_mix: a closed loop of two clients sending `query` lines through
// scenario::protocol::handle_line to one in-process scenario::Server
// (threads = 2). Each client waits for its reply before sending the next
// line. Every pass gives each client the same seeded mix of request
// classes; the classes and what each must be answered with are below.

#include <algorithm>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "scenario/protocol.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/runner_detail.hpp"
#include "scenario/server.hpp"
#include "scenario/surrogate.hpp"
#include "solvers/correlations/correlations.hpp"
#include "tools/arg_parse.hpp"

namespace catbench {
namespace {

namespace sc = cat::scenario;
namespace corr = cat::solvers::correlations;

enum Klass : std::uint8_t {
  kHit,          ///< Zipf repeat over the hot set, warmed at setup: cache hit
  kSurrogate,    ///< fresh on-table key: surrogate tier, cache insert
  kOffTable,     ///< fresh off-table key: falls through to correlation
  kCorrelation,  ///< fresh key with tier=correlation
  kSolve,        ///< fresh key with tier=smoke: full stagnation solve
  kBurst,        ///< both clients send one fresh on-table key at once
  kNumKlass
};
const char* const kKlassName[kNumKlass] = {"hit",         "surrogate",
                                           "offtable",    "correlation",
                                           "solve",       "burst"};
const char* const kExpectedTier[kNumKlass] = {
    "surrogate", "surrogate", "correlation", "correlation", "solve",
    "surrogate"};

/// Requests of each class in one pass of one client. No request log of the
/// service exists, so this mix is an assumed scenario, not a measurement
/// (README "Assumed traffic"): design tools that mostly re-read flight
/// states already asked for (39 re-reads per new state), a Zipf(1.1)
/// popularity over a hot set of 256 states, and a full solve once in
/// 10 000 requests. Replace it with measured proportions once a request
/// log exists.
constexpr std::size_t kPerPass[kNumKlass] = {9750, 125, 40, 60, 1, 24};
constexpr std::size_t kHotKeys = 256;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kClients = 2;
constexpr std::size_t kProbedSolves = 16;

/// Inside the committed shuttle_stag_point table (3-7.5 km/s x 45-75 km).
constexpr double kOnV[2] = {3100.0, 7400.0}, kOnH[2] = {46000.0, 74000.0};
constexpr double kOffV[2] = {8000.0, 11000.0};
constexpr double kSolveV[2] = {5000.0, 7400.0}, kSolveH[2] = {55000.0, 74000.0};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a * 0x2545F4914F6CDD1Dull ^ (b + 0x9E3779B97F4A7C15ull)).next();
}

std::string query_line(double v, double alt, const char* tier) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "query shuttle_stag_point v=%.3f alt=%.3f%s%s",
                v, alt, tier ? " tier=" : "", tier ? tier : "");
  return buf;
}

double in(Rng& r, const double (&range)[2]) {
  return range[0] + r.uniform() * (range[1] - range[0]);
}

struct Request {
  Klass k;
  std::string line;
  std::size_t hot = 0;  ///< hot-set index (kHit)
};

struct Setup {
  std::unique_ptr<sc::Server> server;
  std::vector<std::string> hot_lines;
  std::vector<double> zipf_cdf;
};

/// The request lines of one client's pass: the burst block first (both
/// clients start it together, right after the pass barrier, with keys
/// shared by both), then the other classes in the client's own seeded
/// order, so the two clients' solves rarely run at the same time.
std::vector<Request> make_pass(const Setup& s, std::uint64_t seed,
                               std::size_t pass, std::size_t client) {
  Rng sched(mix(seed, 2 * pass));
  Rng keys(mix(seed ^ (client + 1) * 0x51ED27ull, 2 * pass + 1));
  std::vector<Klass> order;
  for (std::size_t k = 0; k < kNumKlass; ++k)
    if (k != kBurst) order.insert(order.end(), kPerPass[k], static_cast<Klass>(k));
  keys.shuffle(order);
  order.insert(order.begin(), kPerPass[kBurst], kBurst);
  std::vector<Request> out;
  out.reserve(order.size());
  for (const Klass k : order) {
    std::string line;
    std::size_t hot = 0;
    switch (k) {
      case kHit: {
        const double u = keys.uniform();
        const auto it = std::upper_bound(s.zipf_cdf.begin(), s.zipf_cdf.end(), u);
        hot = std::min<std::size_t>(it - s.zipf_cdf.begin(), kHotKeys - 1);
        line = s.hot_lines[hot];
        break;
      }
      case kSurrogate: line = query_line(in(keys, kOnV), in(keys, kOnH), nullptr); break;
      case kOffTable: line = query_line(in(keys, kOffV), in(keys, kOnH), nullptr); break;
      case kCorrelation: {
        const double v = kOnV[0] + keys.uniform() * (kOffV[1] - kOnV[0]);
        line = query_line(v, in(keys, kOnH), "correlation");
        break;
      }
      case kSolve: {
        // Solve cost varies 2x over the domain, so the passes cycle
        // through its 4 x 2 cells in seeded order: every run then solves
        // nearly the same mix and the solve tail does not hang on the seed.
        std::vector<std::size_t> cells = {0, 1, 2, 3, 4, 5, 6, 7};
        Rng cycle(mix(seed, 0x5017E + pass / cells.size()));
        cycle.shuffle(cells);
        const std::size_t cell = cells[pass % cells.size()];
        const double fv = (static_cast<double>(cell % 4) + keys.uniform()) / 4;
        const double fh = (static_cast<double>(cell / 4) + keys.uniform()) / 2;
        line = query_line(kSolveV[0] + fv * (kSolveV[1] - kSolveV[0]),
                          kSolveH[0] + fh * (kSolveH[1] - kSolveH[0]), "smoke");
        break;
      }
      case kBurst: line = query_line(in(sched, kOnV), in(sched, kOnH), nullptr); break;
      case kNumKlass: break;
    }
    out.push_back({k, std::move(line), hot});
  }
  return out;
}

struct ParsedReply {
  bool ok = false;
  std::string tier;
  bool finite = true;
  std::vector<std::pair<std::string, double>> metrics;
  double metric(const std::string& name) const {
    for (const auto& [n, v] : metrics)
      if (n == name) return v;
    return NAN;
  }
};

ParsedReply parse_reply(const std::string& s) {
  ParsedReply p;
  p.ok = s.rfind("{\"ok\": true", 0) == 0;
  const auto t = s.find("\"tier\": \"");
  if (t != std::string::npos) {
    const auto e = s.find('"', t + 9);
    p.tier = s.substr(t + 9, e - t - 9);
  }
  const std::string tag = "\": {\"value\": ";
  for (auto pos = s.find(tag); pos != std::string::npos; pos = s.find(tag, pos + 1)) {
    const auto open = s.rfind('"', pos - 1);
    const char* first = s.data() + pos + tag.size();
    double v = NAN;
    if (std::from_chars(first, s.data() + s.size(), v).ec != std::errc())
      p.finite = false;  // "null": the server's spelling of a non-finite value
    p.metrics.emplace_back(s.substr(open + 1, pos - open - 1), v);
  }
  return p;
}

/// The Case a query line asks for, parsed the way protocol::handle_line
/// parses it (scenario, then key=value options over a kSurrogate default).
sc::Case parse_query(const std::string& line) {
  const auto tokens = sc::protocol::tokenize(line);
  const sc::Case* base = tokens.size() >= 2 ? sc::find_scenario(tokens[1]) : nullptr;
  if (base == nullptr) throw std::logic_error("unparseable line: " + line);
  sc::Case c = *base;
  c.fidelity = sc::Fidelity::kSurrogate;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const auto eq = t.find('=');
    const std::string key = t.substr(0, eq), val = t.substr(eq + 1);
    bool ok = true;
    if (key == "v") {
      ok = cat::tools::try_parse_double(val, 1.0, 1e6, &c.condition.velocity_mps);
    } else if (key == "alt") {
      ok = cat::tools::try_parse_double(val, -500.0, 1e6, &c.condition.altitude_m);
    } else if (key == "tier") {
      c.fidelity = val == "correlation" ? sc::Fidelity::kCorrelation
                   : val == "smoke"     ? sc::Fidelity::kSmoke
                   : val == "nominal"   ? sc::Fidelity::kNominal
                                        : sc::Fidelity::kSurrogate;
    } else {
      ok = false;
    }
    if (!ok) throw std::logic_error("unparseable option in: " + line);
  }
  return c;
}

/// handle_line decomposed into its public steps, with spans around the
/// whole request and around Server::serve.
std::string decomposed_handle_line(sc::Server& server, const std::string& line,
                                   Tracer& tr, std::uint64_t op) {
  Scope root(&tr, "catbench.decomposed_line", op);
  const sc::Case c = parse_query(line);
  sc::ServeReply r;
  {
    Scope s(&tr, "scenario.server.serve", op);
    r = server.serve(c);
  }
  return sc::protocol::reply_to_json(r);
}

/// What one request left behind. Compact, so that a run of a million
/// requests stays small: the reply is kept as a digest (solve replies,
/// which are rare and checked by value, are kept whole in the Phase).
struct Sample {
  Klass k;
  bool cached;
  std::uint32_t pass;
  std::uint32_t index;  ///< position in the pass
  double us;
  std::uint64_t digest;  ///< of the reply without its per-request flags
};

/// Hash of a reply with its cached/coalesced flags left out, so replies of
/// one key compare equal.
std::uint64_t reply_digest(std::string_view reply) {
  const std::hash<std::string_view> h;
  const auto a = reply.find(", \"cached\": ");
  const auto b = reply.find(", \"metrics\": ");
  if (a == std::string_view::npos || b == std::string_view::npos || b < a) return h(reply);
  return h(reply.substr(0, a)) * 1000003u ^ h(reply.substr(b));
}

/// How a phase sends its request lines.
enum class Path : std::uint8_t {
  kPlain,       ///< protocol::handle_line
  kTracedLine,  ///< protocol::handle_line under a span
  kDecomposed,  ///< decomposed_handle_line, for the Server::serve span
};

/// Operation id of a request: phase, client, pass and position in the pass.
std::uint64_t op_id(Path path, std::size_t client, std::uint64_t pass, std::uint64_t index) {
  return (static_cast<std::uint64_t>(path) << 56) | (static_cast<std::uint64_t>(client) << 48) |
         (pass << 16) | index;
}

Setup make_setup(const Options& opt) {
  Setup s;
  sc::clear_surrogates();
  sc::ServerOptions so;
  so.threads = 2;
  s.server = std::make_unique<sc::Server>(so);
  if (s.server->preload_tables(opt.root + "/data") == 0)
    throw std::runtime_error("no surrogate table under " + opt.root + "/data");
  Rng r(mix(opt.seed, 0xC0FFEE));
  double total = 0.0;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    s.hot_lines.push_back(query_line(in(r, kOnV), in(r, kOnH), nullptr));
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    s.zipf_cdf.push_back(total);
  }
  for (double& c : s.zipf_cdf) c /= total;
  std::string out;
  for (const auto& line : s.hot_lines) sc::protocol::handle_line(*s.server, line, &out);
  return s;
}

/// Both clients run whole passes; a barrier at the start of each pass
/// lines up the burst block and decides, once for both, whether the pass
/// runs. fixed_passes == 0 means "until the budget has elapsed", otherwise
/// exactly that many passes. Busy times exclude the barrier waits: they
/// are the benchmark's own synchronisation, not serving work.
struct Phase {
  double busy_s = 0.0;             ///< wall, mean over clients
  std::vector<double> pass_cpu_s;  ///< process CPU time of each pass
  std::size_t passes = 0;
  std::vector<Sample> samples[kClients];
  std::map<std::size_t, std::string> solve_replies[kClients];  ///< by sample
  std::vector<Span> spans;
};

Phase run_phase(const Options& opt, const Setup& setup, double budget_s,
                std::size_t fixed_passes, Path path) {
  Phase ph;
  const auto t0 = Clock::now();
  bool stop = false;  // written only by the barrier's completion step
  std::size_t passes_started = 0;
  double cpu_mark = process_cpu_s();
  auto on_phase = [&]() noexcept {
    const double cpu = process_cpu_s();
    if (passes_started > 0) ph.pass_cpu_s.push_back(cpu - cpu_mark);
    cpu_mark = cpu;
    stop = fixed_passes ? passes_started >= fixed_passes
                        : seconds_between(t0, Clock::now()) >= budget_s;
    if (!stop) ++passes_started;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), on_phase);
  std::size_t per_pass = 0;
  for (const std::size_t c : kPerPass) per_pass += c;
  std::vector<Tracer> tracers(kClients, Tracer(t0));
  if (path != Path::kPlain)  // growing the buffer mid-phase would stall it
    for (auto& t : tracers)
      t.reserve((path == Path::kDecomposed ? 2 : 1) * per_pass * fixed_passes);
  double busy[kClients] = {};
  auto client = [&](std::size_t id) {
    std::string out;
    // Each pass, the clients move on to the next CPUs, so the server's
    // worker threads, which run on the CPUs left free, visit every CPU.
    CpuRotation cpus(id);
    for (std::uint32_t pass = 0;; ++pass) {
      sync.arrive_and_wait();
      if (stop) break;
      cpus.next();
      const auto t_pass = Clock::now();
      const auto reqs = make_pass(setup, opt.seed, pass, id);
      for (std::uint32_t i = 0; i < reqs.size(); ++i) {
        const Request& rq = reqs[i];
        const std::uint64_t op = op_id(path, id, pass, i);
        const auto a = Clock::now();
        if (path == Path::kDecomposed) {
          out = decomposed_handle_line(*setup.server, rq.line, tracers[id], op);
        } else if (path == Path::kTracedLine) {
          Scope span(&tracers[id], "scenario.protocol.handle_line", op);
          sc::protocol::handle_line(*setup.server, rq.line, &out);
        } else {
          sc::protocol::handle_line(*setup.server, rq.line, &out);
        }
        const double us = 1e6 * seconds_between(a, Clock::now());
        if (rq.k == kSolve) ph.solve_replies[id][ph.samples[id].size()] = out;
        ph.samples[id].push_back({rq.k, out.find("\"cached\": true") != std::string::npos,
                                  pass, i, us, reply_digest(out)});
      }
      busy[id] += seconds_between(t_pass, Clock::now());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kClients; ++id) threads.emplace_back(client, id);
  for (auto& t : threads) t.join();
  ph.passes = passes_started;
  for (const double b : busy) ph.busy_s += b / kClients;
  for (const auto& t : tracers) append_spans(ph.spans, t.spans());
  return ph;
}

/// Calls \p f(sample, request, sample position) for every request of one
/// client, regenerating the request lines pass by pass.
template <class F>
void for_each_request(const Phase& ph, const Setup& setup, std::uint64_t seed,
                      std::size_t id, F&& f) {
  std::vector<Request> reqs;
  std::size_t cur = SIZE_MAX;
  for (std::size_t q = 0; q < ph.samples[id].size(); ++q) {
    const Sample& s = ph.samples[id][q];
    if (s.pass != cur) reqs = make_pass(setup, seed, cur = s.pass, id);
    f(s, reqs[s.index], q);
  }
}

/// Digest of the reply a fresh (uncached) request for \p line must get:
/// the library's own run_case of that case at the expected tier. Throws
/// when that direct computation fails or is not finite.
std::uint64_t expected_digest(const std::string& line, Klass k) {
  sc::Case c = parse_query(line);
  if (k == kOffTable) c.fidelity = sc::Fidelity::kCorrelation;
  sc::ServeReply r;
  r.ok = true;
  r.case_name = c.name;
  r.tier = kExpectedTier[k];
  r.metrics = sc::run_case(c).metrics;
  for (const auto& m : r.metrics)
    if (!std::isfinite(m.value)) throw std::runtime_error("non-finite " + m.name);
  return reply_digest(sc::protocol::reply_to_json(r));
}

/// Check every reply of a phase.
void check_phase(const Phase& ph, const Setup& setup, std::uint64_t seed, Report& rep) {
  std::vector<std::uint64_t> hot(kHotKeys, 0);  // expected digests, lazily
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> bursts;
  const auto table = sc::find_surrogate(parse_query(setup.hot_lines.front()));
  for (std::size_t id = 0; id < kClients; ++id)
    for_each_request(ph, setup, seed, id, [&](const Sample& s, const Request& rq, std::size_t q) {
      ++rep.attempted;
      std::string why;
      try {
        switch (s.k) {
          case kHit:
            if (hot[rq.hot] == 0) hot[rq.hot] = expected_digest(rq.line, kHit);
            if (!s.cached) why = "hit class not answered from the cache";
            else if (s.digest != hot[rq.hot]) why = "cache hit differs from the key's reply";
            break;
          case kSurrogate:
          case kOffTable:
          case kCorrelation:
            // Exactly what the library computes for the case at that tier.
            if (s.cached) why = "fresh key answered from the cache";
            else if (s.digest != expected_digest(rq.line, s.k))
              why = std::string("reply is not the ") + kExpectedTier[s.k] + " answer";
            break;
          case kBurst: {
            const auto [it, first] = bursts.emplace(std::make_pair(s.pass, s.index), s.digest);
            if (!first && it->second != s.digest) why = "the two clients' burst replies differ";
            else if (s.digest != expected_digest(rq.line, s.k)) why = "reply is not the surrogate answer";
            break;
          }
          case kSolve: {
            // A fresh smoke solve must sit within the committed table's
            // stored error bars (tests/test_surrogate.cpp's band).
            const ParsedReply p = parse_reply(ph.solve_replies[id].at(q));
            const sc::Case c = parse_query(rq.line);
            const auto a = table->query(c.condition.velocity_mps, c.condition.altitude_m);
            const double qc = p.metric("q_conv"), t = p.metric("t_stag"), ps = p.metric("p_stag");
            if (!p.ok || !p.finite || p.tier != "solve") {
              why = "bad solve reply";
            } else if (!(std::fabs(qc - a.q_conv_W_m2) <= a.q_conv_err_W_m2) ||
                       !(std::fabs(t - a.t_stag_K) <= a.t_stag_err_K) ||
                       !(std::fabs(ps - a.p_stag_Pa) <= a.p_stag_err_Pa)) {
              char buf[160];
              std::snprintf(buf, sizeof buf,
                            "q_conv %.6g, t_stag %.6g outside the table's %.6g+-%.3g, %.6g+-%.3g",
                            qc, t, a.q_conv_W_m2, a.q_conv_err_W_m2, a.t_stag_K, a.t_stag_err_K);
              why = buf;
            }
            break;
          }
          case kNumKlass: break;
        }
      } catch (const std::exception& e) {
        why = std::string("direct computation failed: ") + e.what();
      }
      if (!why.empty()) rep.fail(std::string(kKlassName[s.k]) + " '" + rq.line + "': " + why);
    });
}

void put_class_latencies(const Phase& ph, Report& rep) {
  std::vector<double> us[kNumKlass];
  for (const auto& samples : ph.samples)
    for (const Sample& s : samples) us[s.k].push_back(s.us);
  const Summary hit = summarize(us[kHit]);
  const Summary sur = summarize(us[kSurrogate]);
  const Summary cor = summarize(us[kCorrelation]);
  Summary sol = summarize(us[kSolve]);
  rep.put_layer("hit_us_p50", hit.p50);
  rep.put_layer("hit_us_tail", hit.tail);
  rep.put_layer("surrogate_us_p50", sur.p50);
  rep.put_layer("surrogate_us_tail", sur.tail);
  rep.put_layer("correlation_us_tail", cor.tail);
  rep.put_layer("solve_ms_p50", 1e-3 * sol.p50);
  rep.note("hit_us", hit);
  rep.note("surrogate_us", sur);
  rep.note("correlation_us", cor);
  rep.note("solve_ms", sol);
}

/// Probes after the decomposed phase: direct calls that time single
/// layers at the phase's own requests. They run outside every phase's
/// wall time.
void probe_layers(const Phase& traced, const Setup& setup, std::uint64_t seed,
                  Tracer& tr, Report& rep) {
  std::map<std::uint64_t, double> serve_s;  // op -> traced Server::serve time
  for (const Span& s : traced.spans)
    if (std::string_view(s.name) == "scenario.server.serve")
      serve_s[s.op] = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  const auto planet = sc::make_planet(sc::Planet::kEarth);
  double key_ns = 0.0, query_ns = 0.0, corr_us = 0.0;
  std::size_t n_key = 0, n_query = 0, n_corr = 0, n_solve = 0;
  std::vector<double> wait_us;
  const std::shared_ptr<const sc::SurrogateTable> table =
      sc::find_surrogate(parse_query(setup.hot_lines.front()));
  double sink = 0.0;
  constexpr int kReps = 64;
  for (std::size_t id = 0; id < kClients; ++id)
    for_each_request(traced, setup, seed, id, [&](const Sample& s, const Request& rq, std::size_t q) {
      if (s.k == kHit && n_key >= 4096) return;
      const std::uint64_t op = op_id(Path::kDecomposed, id, s.pass, s.index);
      const sc::Case c = parse_query(rq.line);
      {
        const auto t0 = Clock::now();
        for (int r = 0; r < kReps; ++r) sink += static_cast<double>(sc::canonical_case_key(c).size());
        key_ns += 1e9 * seconds_between(t0, Clock::now()) / kReps;
        ++n_key;
      }
      if (s.k == kSurrogate || s.k == kCorrelation) {
        // Direct compute at the tier that served the request; the rest of
        // the traced serve() time is the queue handoff and wake-up.
        sc::Case cc = c;
        const auto t0 = Clock::now();
        sink += sc::run_case(cc).metrics.front().value;
        const double direct = seconds_between(t0, Clock::now());
        const auto it = serve_s.find(op);
        if (it != serve_s.end()) wait_us.push_back(1e6 * (it->second - direct));
      }
      if (s.k == kSurrogate) {
        const auto t0 = Clock::now();
        for (int r = 0; r < kReps; ++r)
          sink += table->query(c.condition.velocity_mps, c.condition.altitude_m).q_conv_W_m2;
        query_ns += 1e9 * seconds_between(t0, Clock::now()) / kReps;
        ++n_query;
      }
      if (s.k == kCorrelation || s.k == kOffTable) {
        const auto st = sc::detail::stagnation_conditions(c, planet);
        corr::CorrelationConditions cc;
        cc.velocity_mps = st.velocity;
        cc.rho_inf_kg_m3 = st.rho_inf;
        cc.p_inf_Pa = st.p_inf;
        cc.t_inf_K = st.t_inf;
        cc.nose_radius_m = st.nose_radius;
        cc.wall_temperature_K = st.wall_temperature_K;
        cc.angle_of_attack_rad = c.angle_of_attack_rad;
        const auto t0 = Clock::now();
        for (int r = 0; r < 16; ++r) {
          sink += corr::estimate_edge(cc).t_stag_K;
          for (const auto kind : corr::kAllCorrelations) sink += corr::stagnation_heating(kind, cc);
        }
        corr_us += 1e6 * seconds_between(t0, Clock::now()) / 16;
        ++n_corr;
      }
      if (s.k == kSolve && n_solve < kProbedSolves) {
        // The served solve, decomposed into its layers; its outputs must
        // equal the served reply bit for bit.
        sc::Case cs = c;
        cs.fidelity = sc::Fidelity::kSmoke;
        const auto got = traced_stagnation(cs, tr, op);
        const ParsedReply p = parse_reply(traced.solve_replies[id].at(q));
        bool same = got.size() == p.metrics.size();
        for (std::size_t i = 0; same && i < got.size(); ++i)
          same = got[i].name == p.metrics[i].first && got[i].value == p.metrics[i].second;
        if (!same) {
          rep.replay_ok = false;
          rep.fail("solve '" + rq.line + "': decomposed solve differs from the served reply");
        }
        ++n_solve;
      }
    });
  const auto avg = [](double total, std::size_t n) { return n ? total / static_cast<double>(n) : 0.0; };
  rep.put_layer("scenario.canonical_case_key.ns", avg(key_ns, n_key));
  rep.put_layer("scenario.surrogate.query.ns", avg(query_ns, n_query));
  rep.put_layer("solvers.correlations.us", avg(corr_us, n_corr));
  rep.put_layer("core.job_queue.wait.us", median_of(wait_us));
  if (!std::isfinite(sink)) std::fprintf(stderr, "catbench: non-finite probe sink\n");
}

/// Fails the run when a replayed phase's replies differ from the untraced
/// phase's.
void check_same_replies(const Phase& ph, const Phase& replay, const char* what, Report& rep) {
  for (std::size_t id = 0; id < kClients; ++id) {
    const auto& a = ph.samples[id];
    const auto& b = replay.samples[id];
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
      if (a[i].digest != b[i].digest) {
        rep.replay_ok = false;
        rep.fail(std::string(what) + " reply differs from handle_line's (client " +
                 std::to_string(id) + ", pass " + std::to_string(a[i].pass) + ", request " +
                 std::to_string(a[i].index) + ")");
        break;
      }
    if (a.size() != b.size()) {
      rep.replay_ok = false;
      rep.fail(std::string(what) + " phase sent a different number of requests");
    }
  }
}

}  // namespace

double serve_set_up_cpu_s(const Options& opt) {
  const Setup setup = make_setup(opt);
  return process_cpu_s();
}

void run_serve_mix(const Options& opt, Report& rep) {
  Setup setup = make_setup(opt);
  // A traced run splits --seconds over the untraced phase and its two
  // replays.
  const Phase ph =
      run_phase(opt, setup, opt.trace ? opt.seconds / 3 : opt.seconds, 0, Path::kPlain);
  const auto stats = setup.server->stats();
  check_phase(ph, setup, opt.seed, rep);
  std::vector<double> ms;
  std::size_t n_correlation = 0;
  for (const auto& samples : ph.samples)
    for (const Sample& s : samples) {
      ms.push_back(1e-3 * s.us);
      n_correlation += s.k == kCorrelation;
    }
  const Summary s = summarize(ms);
  // Requests per CPU-second of the whole process (clients and server) in
  // the median pass: the wall-clock throughput of this multi-threaded loop
  // swings with the host's steal, its CPU cost does not.
  std::size_t per_pass = 0;
  for (const std::size_t c : kPerPass) per_pass += c;
  rep.put_e2e("ops_per_s", static_cast<double>(kClients * per_pass) / median_of(ph.pass_cpu_s));
  rep.put_e2e("op_ms_p50", s.p50);
  rep.put_e2e("op_ms_tail", s.tail);
  rep.note("op_ms", s);
  put_class_latencies(ph, rep);
  if (!opt.trace) return;

  // Server counters of the untraced phase (warm-up requests included).
  const auto put_count = [&](const char* name, std::size_t v) {
    rep.put_layer(std::string("scenario.server.") + name, static_cast<double>(v));
  };
  put_count("requests", stats.requests);
  put_count("cache_hits", stats.cache_hits);
  put_count("coalesced", stats.coalesced);
  put_count("served_surrogate", stats.served_surrogate);
  put_count("served_correlation", stats.served_correlation);
  put_count("served_solve", stats.served_solve);
  put_count("errors", stats.errors);
  put_count("timeouts", stats.timeouts);
  rep.put_layer("scenario.server.hit_ratio",
                static_cast<double>(stats.cache_hits) / static_cast<double>(stats.requests));
  // Surrogate-tier attempts: every computed request that did not ask for
  // another tier (explicit correlation requests are all fresh keys).
  const double attempts = static_cast<double>(stats.served_surrogate + stats.served_correlation -
                                              n_correlation);
  rep.put_layer("scenario.surrogate.hit_ratio",
                attempts > 0 ? static_cast<double>(stats.served_surrogate) / attempts : 0.0);
  // Every successful compute inserts exactly one cache entry.
  put_count("cache_entries",
            stats.served_surrogate + stats.served_correlation + stats.served_solve);

  // Traced phases: fresh servers set up the same way replay the same
  // passes, first through handle_line under a span (the protocol's time
  // and the tracing overhead), then through its decomposed public steps
  // (the Server::serve span, which handle_line does not expose).
  setup.server.reset();
  setup = make_setup(opt);
  const Phase lph = run_phase(opt, setup, 0.0, ph.passes, Path::kTracedLine);
  check_phase(lph, setup, opt.seed, rep);
  check_same_replies(ph, lph, "traced", rep);
  setup.server.reset();
  setup = make_setup(opt);
  const Phase dph = run_phase(opt, setup, 0.0, ph.passes, Path::kDecomposed);
  check_phase(dph, setup, opt.seed, rep);
  check_same_replies(ph, dph, "decomposed", rep);
  Tracer probes(Clock::now());
  probe_layers(dph, setup, opt.seed, probes, rep);

  std::vector<Span> spans = lph.spans;
  append_spans(spans, dph.spans);
  append_spans(spans, probes.spans());
  const auto totals = span_totals(spans);
  const auto mean = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.mean_s();
  };
  rep.put_layer("scenario.protocol.handle_line.us", 1e6 * mean("scenario.protocol.handle_line"));
  rep.put_layer("scenario.server.serve.us", 1e6 * mean("scenario.server.serve"));
  rep.put_layer("scenario.run_case.ms", 1e3 * mean("scenario.run_case"));
  rep.put_layer("gas.make_equilibrium.ms", 1e3 * mean("gas.make_equilibrium"));
  rep.put_layer("radiation.model_build.ms", 1e3 * mean("radiation.model_build"));
  const double edge = mean("solvers.stagnation.edge"), solve = mean("solvers.stagnation.solve");
  rep.put_layer("solvers.stagnation.edge.ms", 1e3 * edge);
  rep.put_layer("solvers.stagnation.solve.ms", 1e3 * solve);
  rep.put_layer("solvers.stagnation.bl_rad.ms", 1e3 * (solve - edge));
  for (const char* f : {"solve_ph", "solve_tp", "solve_rho_e"}) {
    const std::string span = std::string("gas.equilibrium.") + f;
    const auto it = totals.find(span);
    rep.put_layer(span + ".us", 1e6 * mean(span.c_str()));
    rep.put_layer(span + ".calls", it == totals.end() ? 0.0 : static_cast<double>(it->second.calls));
  }
  rep.put_layer("trace.overhead_frac", (lph.busy_s - ph.busy_s) / ph.busy_s);
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/spans-serve_mix-s" + std::to_string(opt.seed) + ".jsonl";
    if (!write_spans(path, spans)) std::fprintf(stderr, "catbench: cannot write %s\n", path.c_str());
  }
  std::printf("self times (traced phases and probes, %zu spans):\n", spans.size());
  for (const auto& [name, t] : totals)
    std::printf("  %-40s calls %7zu  total %10.3f ms  self %10.3f ms\n", name.c_str(), t.calls,
                1e3 * t.total_s, 1e3 * t.self_s);
}

}  // namespace catbench
