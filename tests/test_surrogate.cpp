// Surrogate-tier tests: the doubled-grid builder, honest per-cell error
// bars (the property test re-solves the truth and checks every answer
// sits within its own stored bound), strict off-table throwing, the
// binary round trip, the process-global registry, and the scenario
// runner's Fidelity::kSurrogate path end to end.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "io/binary.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/surrogate.hpp"

namespace {

using namespace cat;

// Smooth analytic truth: exponential-atmosphere density driving a
// V^3 sqrt(rho) heating law — same shape the real hierarchy produces,
// but instant to evaluate, so the property tests can afford 1000 states.
std::array<double, 4> analytic_truth(double v, double alt) {
  const double rho = 1.225 * std::exp(-alt / 7200.0);
  const double q = 1.7415e-4 * std::sqrt(rho / 0.3) * v * v * v;
  return {q, 1e-3 * q, 240.0 + 1e-7 * v * v, rho * 287.053 * 240.0};
}

scenario::SurrogateDomain test_domain(std::size_t n) {
  scenario::SurrogateDomain d;
  d.velocity_min_mps = 3000.0;
  d.velocity_max_mps = 7500.0;
  d.n_velocity = n;
  d.altitude_min_m = 45000.0;
  d.altitude_max_m = 75000.0;
  d.n_altitude = n;
  return d;
}

scenario::SurrogateMeta test_meta() {
  scenario::SurrogateMeta m;
  m.nose_radius_m = 0.3;
  m.wall_temperature_K = 1000.0;
  m.base_case = "analytic_test_table";
  return m;
}

scenario::SurrogateTable build_analytic(std::size_t n) {
  return scenario::build_surrogate(test_meta(), test_domain(n),
                                   analytic_truth, {});
}

// Registry state is process-global: every test that registers cleans up.
struct RegistryGuard {
  ~RegistryGuard() { scenario::clear_surrogates(); }
};

// ---------- builder ----------

TEST(Surrogate, NodesReproduceTruthExactly) {
  const auto table = build_analytic(5);
  const auto d = table.domain();
  for (std::size_t iv = 0; iv < d.n_velocity; ++iv) {
    for (std::size_t ia = 0; ia < d.n_altitude; ++ia) {
      const double v =
          d.velocity_min_mps +
          (d.velocity_max_mps - d.velocity_min_mps) *
              static_cast<double>(iv) / static_cast<double>(d.n_velocity - 1);
      const double alt =
          d.altitude_min_m +
          (d.altitude_max_m - d.altitude_min_m) * static_cast<double>(ia) /
              static_cast<double>(d.n_altitude - 1);
      const auto truth = analytic_truth(v, alt);
      const auto a = table.query(v, alt);
      // Node queries (including the far corner, the upper-edge regression
      // case) interpolate with t in {0, 1}: exact reproduction.
      EXPECT_DOUBLE_EQ(a.q_conv_W_m2, truth[0]) << iv << "," << ia;
      EXPECT_DOUBLE_EQ(a.p_stag_Pa, truth[3]) << iv << "," << ia;
    }
  }
}

TEST(Surrogate, BuilderValidatesDomainAndOptions) {
  auto bad = test_domain(5);
  bad.n_velocity = 1;  // a 1-node axis has no cells
  EXPECT_THROW(scenario::build_surrogate(test_meta(), bad, analytic_truth, {}),
               std::invalid_argument);
  auto inverted = test_domain(5);
  inverted.velocity_max_mps = inverted.velocity_min_mps - 1.0;
  EXPECT_THROW(
      scenario::build_surrogate(test_meta(), inverted, analytic_truth, {}),
      std::invalid_argument);
}

// ---------- the error-bar property ----------

TEST(Surrogate, EveryAnswerWithinItsOwnErrorBar) {
  // THE tier-0 contract: for >= 1000 random in-domain states, the served
  // value must sit within the served error bar of the truth. This is what
  // makes the ~ns tier honest rather than merely fast.
  const auto table = build_analytic(9);
  const auto d = table.domain();
  std::mt19937 rng(20260807u);
  std::uniform_real_distribution<double> uv(d.velocity_min_mps,
                                            d.velocity_max_mps);
  std::uniform_real_distribution<double> ua(d.altitude_min_m,
                                            d.altitude_max_m);
  for (int k = 0; k < 1000; ++k) {
    const double v = uv(rng), alt = ua(rng);
    const auto truth = analytic_truth(v, alt);
    const auto a = table.query(v, alt);
    EXPECT_LE(std::fabs(a.q_conv_W_m2 - truth[0]), a.q_conv_err_W_m2)
        << "q_conv at v=" << v << " alt=" << alt;
    EXPECT_LE(std::fabs(a.q_rad_W_m2 - truth[1]), a.q_rad_err_W_m2)
        << "q_rad at v=" << v << " alt=" << alt;
    EXPECT_LE(std::fabs(a.t_stag_K - truth[2]), a.t_stag_err_K)
        << "t_stag at v=" << v << " alt=" << alt;
    EXPECT_LE(std::fabs(a.p_stag_Pa - truth[3]), a.p_stag_err_Pa)
        << "p_stag at v=" << v << " alt=" << alt;
  }
}

TEST(Surrogate, BoundsShrinkUnderRefinement) {
  // Multilinear interpolation error is O(h^2): refining the grid 2x must
  // shrink the measured bounds by roughly 4x (allow 2.5x for safety-factor
  // and floor effects).
  const auto coarse = build_analytic(5);
  const auto fine = build_analytic(9);
  EXPECT_LT(fine.max_bound(0), coarse.max_bound(0) / 2.5);
  EXPECT_LE(fine.mean_bound(0), coarse.mean_bound(0));
}

// ---------- strict domain policy ----------

TEST(Surrogate, OffTableQueriesThrowNotClamp) {
  const auto table = build_analytic(4);
  const auto d = table.domain();
  const double v_mid = 0.5 * (d.velocity_min_mps + d.velocity_max_mps);
  const double a_mid = 0.5 * (d.altitude_min_m + d.altitude_max_m);
  EXPECT_THROW(table.query(d.velocity_min_mps - 1.0, a_mid), SolverError);
  EXPECT_THROW(table.query(d.velocity_max_mps + 1.0, a_mid), SolverError);
  EXPECT_THROW(table.query(v_mid, d.altitude_min_m - 1.0), SolverError);
  EXPECT_THROW(table.query(v_mid, d.altitude_max_m + 1.0), SolverError);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(table.query(nan, a_mid), SolverError);
  EXPECT_THROW(table.query(v_mid, nan), SolverError);
  // The inclusive boundary itself serves.
  EXPECT_NO_THROW(table.query(d.velocity_max_mps, d.altitude_max_m));
  EXPECT_TRUE(table.covers(d.velocity_max_mps, d.altitude_max_m));
  EXPECT_FALSE(table.covers(nan, a_mid));
}

// ---------- binary round trip ----------

TEST(Surrogate, SaveLoadRoundTripIsBitExact) {
  const auto table = build_analytic(6);
  const std::string path = "surrogate_roundtrip_test.bin";
  table.save(path);
  const auto loaded = scenario::SurrogateTable::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.meta().base_case, table.meta().base_case);
  EXPECT_EQ(loaded.meta().family, table.meta().family);
  EXPECT_EQ(loaded.meta().angle_of_attack_rad,
            table.meta().angle_of_attack_rad);
  EXPECT_EQ(loaded.domain().n_velocity, table.domain().n_velocity);
  EXPECT_EQ(loaded.n_cells(), table.n_cells());
  for (std::size_t ch = 0; ch < scenario::SurrogateTable::kNChannels; ++ch) {
    EXPECT_EQ(loaded.max_bound(ch), table.max_bound(ch));
    EXPECT_EQ(loaded.mean_bound(ch), table.mean_bound(ch));
  }
  std::mt19937 rng(7u);
  const auto d = table.domain();
  std::uniform_real_distribution<double> uv(d.velocity_min_mps,
                                            d.velocity_max_mps);
  std::uniform_real_distribution<double> ua(d.altitude_min_m,
                                            d.altitude_max_m);
  for (int k = 0; k < 100; ++k) {
    const double v = uv(rng), alt = ua(rng);
    const auto a = table.query(v, alt);
    const auto b = loaded.query(v, alt);
    EXPECT_EQ(a.q_conv_W_m2, b.q_conv_W_m2);
    EXPECT_EQ(a.q_conv_err_W_m2, b.q_conv_err_W_m2);
    EXPECT_EQ(a.p_stag_Pa, b.p_stag_Pa);
  }
}

TEST(Surrogate, LoadRejectsCorruptFiles) {
  const std::string path = "surrogate_corrupt_test.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOTATBLE garbage";
  }
  EXPECT_THROW(scenario::SurrogateTable::load(path), Error);
  std::remove(path.c_str());

  // Truncation after a valid prefix must throw, not serve a half table.
  const auto table = build_analytic(4);
  table.save(path);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(scenario::SurrogateTable::load(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(scenario::SurrogateTable::load("no_such_file.bin"), Error);
}

// ---------- registry ----------

TEST(Surrogate, RegistryMatchesMetaAndCoverage) {
  RegistryGuard guard;
  scenario::clear_surrogates();

  scenario::Case c;
  c.name = "registry_probe";
  c.family = scenario::SolverFamily::kStagnationPoint;
  c.vehicle.nose_radius = 0.3;
  c.wall_temperature_K = 1000.0;
  c.condition = {5000.0, 60000.0};

  EXPECT_EQ(scenario::find_surrogate(c), nullptr);
  auto table = std::make_shared<scenario::SurrogateTable>(build_analytic(4));
  scenario::register_surrogate(table);
  EXPECT_EQ(scenario::n_registered_surrogates(), 1u);
  EXPECT_EQ(scenario::find_surrogate(c), table);

  // Out-of-domain flight state: covered meta, uncovered point.
  auto far = c;
  far.condition.velocity_mps = 20000.0;
  EXPECT_EQ(scenario::find_surrogate(far), nullptr);
  // Different body: no match.
  auto other = c;
  other.vehicle.nose_radius = 1.0;
  EXPECT_EQ(scenario::find_surrogate(other), nullptr);
  // Explicit p/T override: tables tabulate the atmosphere, never match.
  auto overridden = c;
  overridden.condition.pressure_Pa = 100.0;
  overridden.condition.temperature_K = 250.0;
  EXPECT_EQ(scenario::find_surrogate(overridden), nullptr);

  scenario::clear_surrogates();
  EXPECT_EQ(scenario::n_registered_surrogates(), 0u);
  EXPECT_EQ(scenario::find_surrogate(c), nullptr);
}

TEST(Surrogate, RegistryRejectsWrongShapeAndSolverFamily) {
  // Regression (matching bug): v1 matching keyed only on planet, gas,
  // nose radius, wall temperature and coverage — a sphere-cone VSL march
  // or a trajectory-driven case with the same nose radius silently got
  // the hemisphere stagnation-point table's answer. The identity block
  // now records the base case's solver family and attitude.
  RegistryGuard guard;
  scenario::clear_surrogates();
  scenario::register_surrogate(
      std::make_shared<scenario::SurrogateTable>(build_analytic(4)));

  scenario::Case match;
  match.family = scenario::SolverFamily::kStagnationPoint;
  match.vehicle.nose_radius = 0.3;
  match.wall_temperature_K = 1000.0;
  match.condition = {5000.0, 60000.0};
  ASSERT_NE(scenario::find_surrogate(match), nullptr);

  // Same nose radius, but a sphere-cone marching case: not the same body.
  auto sphere_cone = match;
  sphere_cone.family = scenario::SolverFamily::kVslMarch;
  sphere_cone.cone_half_angle_rad = 0.5;
  EXPECT_EQ(scenario::find_surrogate(sphere_cone), nullptr);

  // Trajectory-driven family: the table answers point conditions only.
  auto pulse = match;
  pulse.family = scenario::SolverFamily::kStagnationPulse;
  EXPECT_EQ(scenario::find_surrogate(pulse), nullptr);

  // Same family flown at a different attitude: different windward body.
  auto banked = match;
  banked.angle_of_attack_rad = 0.35;
  EXPECT_EQ(scenario::find_surrogate(banked), nullptr);
}

// ---------- corrupt records (hermetic, MemoryWriter + load_memory) -----

// Field-by-field v2 record builder: the default spec is a VALID minimal
// record (ValidCraftedV2RecordLoads proves it), so each corrupt variant
// below fails for exactly the mutation it applies.
struct V2RecordSpec {
  std::uint64_t planet = 0, gas = 0, family = 0;
  double nose_radius = 0.3, wall_temp = 1000.0, aoa = 0.0;
  std::string base_case = "crafted_v2";
  std::uint64_t nv = 2, na = 2;
  double vmin = 3000.0, vmax = 7500.0;
  double amin = 45000.0, amax = 75000.0;
  double node = 10.0, bound = 0.5;
  bool write_payload = true;

  std::string bytes() const {
    io::MemoryWriter w;
    w.write_magic("CATSURR2");
    w.write_u64(planet);
    w.write_u64(gas);
    w.write_u64(family);
    w.write_f64(nose_radius);
    w.write_f64(wall_temp);
    w.write_f64(aoa);
    w.write_string(base_case);
    w.write_u64(nv);
    w.write_u64(na);
    w.write_f64(vmin);
    w.write_f64(vmax);
    w.write_f64(amin);
    w.write_f64(amax);
    if (write_payload) {
      for (std::size_t ch = 0; ch < scenario::SurrogateTable::kNChannels;
           ++ch) {
        for (std::uint64_t k = 0; k < nv * na; ++k) w.write_f64(node);
        for (std::uint64_t k = 0; k < (nv - 1) * (na - 1); ++k)
          w.write_f64(bound);
      }
    }
    return w.bytes();
  }
};

scenario::SurrogateTable load_mem(const std::string& record) {
  const std::vector<unsigned char> bytes(record.begin(), record.end());
  return scenario::SurrogateTable::load_memory(bytes, "<crafted>");
}

// The corrupt-record oracle (same contract the fuzz harness enforces):
// a malformed record may throw cat::Error and nothing else. In
// particular std::invalid_argument — the API-misuse exception the table
// constructor raises — must never escape on a byte-stream problem.
void expect_rejected(const std::string& record, const char* label) {
  try {
    load_mem(record);
    FAIL() << label << ": corrupt record was accepted";
  } catch (const Error&) {
    // The only acceptable outcome.
  } catch (const std::exception& e) {
    FAIL() << label << ": wrong exception type escaped: " << e.what();
  }
}

TEST(Surrogate, ValidCraftedV2RecordLoads) {
  const auto t = load_mem(V2RecordSpec{}.bytes());
  EXPECT_EQ(t.meta().base_case, "crafted_v2");
  EXPECT_EQ(t.domain().n_velocity, 2u);
  EXPECT_EQ(t.domain().n_altitude, 2u);
  const auto a = t.query(5000.0, 60000.0);
  EXPECT_DOUBLE_EQ(a.q_conv_W_m2, 10.0);
  EXPECT_DOUBLE_EQ(a.q_conv_err_W_m2, 0.5);
}

TEST(Surrogate, CorruptV2RecordsThrowErrorOnly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Degenerate grids: fewer than 2 nodes per axis can never bound a cell.
  {
    V2RecordSpec s;
    s.nv = 0;
    s.na = 0;
    s.write_payload = false;
    expect_rejected(s.bytes(), "n_velocity = n_altitude = 0");
  }
  {
    V2RecordSpec s;
    s.nv = 1;
    expect_rejected(s.bytes(), "n_velocity = 1");
  }
  {
    V2RecordSpec s;
    s.na = 1;
    expect_rejected(s.bytes(), "n_altitude = 1");
  }

  // The fuzz-found hazard class: a header claiming a huge grid over a
  // tiny payload must be rejected BEFORE any allocation is sized by it.
  {
    V2RecordSpec s;
    s.nv = 60000;
    s.na = 60000;
    s.write_payload = false;
    expect_rejected(s.bytes(), "huge dims over empty payload");
  }

  // Malformed flight domains.
  {
    V2RecordSpec s;
    s.vmin = nan;
    expect_rejected(s.bytes(), "NaN velocity_min");
  }
  {
    V2RecordSpec s;
    s.vmin = 7500.0;
    s.vmax = 3000.0;
    expect_rejected(s.bytes(), "inverted velocity axis");
  }
  {
    V2RecordSpec s;
    s.amin = s.amax = 60000.0;
    expect_rejected(s.bytes(), "zero-width altitude axis");
  }
  {
    V2RecordSpec s;
    s.vmin = -100.0;
    expect_rejected(s.bytes(), "non-positive velocity_min");
  }

  // Non-finite / negative payload values.
  {
    V2RecordSpec s;
    s.node = nan;
    expect_rejected(s.bytes(), "NaN node value");
  }
  {
    V2RecordSpec s;
    s.bound = nan;
    expect_rejected(s.bytes(), "NaN deviation bound");
  }
  {
    V2RecordSpec s;
    s.bound = -0.5;
    expect_rejected(s.bytes(), "negative deviation bound");
  }

  // Non-finite identity fields and unknown enum tags.
  {
    V2RecordSpec s;
    s.nose_radius = nan;
    expect_rejected(s.bytes(), "NaN nose radius");
  }
  {
    V2RecordSpec s;
    s.planet = 99;
    expect_rejected(s.bytes(), "unknown planet tag");
  }
  {
    V2RecordSpec s;
    s.family = 99;
    expect_rejected(s.bytes(), "unknown solver family tag");
  }

  // A well-formed record of the retired CATSURR1 layout (no family or
  // attitude fields) is refused by its magic.
  {
    io::MemoryWriter w;
    w.write_magic("CATSURR1");
    w.write_u64(0);  // Planet::kEarth
    w.write_u64(0);  // GasModelKind::kAir5
    w.write_f64(0.3);
    w.write_f64(1000.0);
    w.write_string("legacy_v1");
    w.write_u64(2);
    w.write_u64(2);
    for (const double x : {3000.0, 7500.0, 45000.0, 75000.0}) w.write_f64(x);
    for (std::size_t ch = 0; ch < scenario::SurrogateTable::kNChannels;
         ++ch) {
      for (int node = 0; node < 4; ++node) w.write_f64(10.0);
      w.write_f64(0.5);
    }
    expect_rejected(w.bytes(), "legacy CATSURR1 record");
  }
}

TEST(Surrogate, TruncatedV2RecordRejectedAtEveryCut) {
  // Chopping a valid record anywhere must throw Error — never serve a
  // half table, never read past the buffer (ASan would catch the latter).
  const std::string full = V2RecordSpec{}.bytes();
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                          std::size_t{40}, full.size() / 2,
                          full.size() - 1}) {
    expect_rejected(full.substr(0, cut), "truncated v2 record");
  }
}

TEST(Surrogate, LoadMemoryMatchesFileLoad) {
  // The span-backed and file-backed loaders run the same parser: a saved
  // table read back through either path serves identical answers.
  const auto table = build_analytic(5);
  const std::string path = "surrogate_load_memory_test.bin";
  table.save(path);
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  const auto from_file = scenario::SurrogateTable::load(path);
  std::remove(path.c_str());
  const auto from_mem = load_mem(bytes);

  EXPECT_EQ(from_mem.meta().base_case, from_file.meta().base_case);
  EXPECT_EQ(from_mem.n_cells(), from_file.n_cells());
  const auto a = from_file.query(5200.0, 61000.0);
  const auto b = from_mem.query(5200.0, 61000.0);
  EXPECT_EQ(a.q_conv_W_m2, b.q_conv_W_m2);
  EXPECT_EQ(a.t_stag_err_K, b.t_stag_err_K);
}

// ---------- against the real hierarchy ----------

TEST(Surrogate, HighFidelityBuildServesWithinStoredBounds) {
  RegistryGuard guard;
  const scenario::Case* base = scenario::find_scenario("shuttle_stag_point");
  ASSERT_NE(base, nullptr);

  // Small domain around the serving anchor: 3x3 nodes = 25 smoke solves.
  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = 6000.0;
  domain.velocity_max_mps = 7200.0;
  domain.n_velocity = 3;
  domain.altitude_min_m = 60000.0;
  domain.altitude_max_m = 72000.0;
  domain.n_altitude = 3;
  auto table = std::make_shared<scenario::SurrogateTable>(
      scenario::build_surrogate(*base, domain, {}));
  EXPECT_EQ(table->meta().base_case, base->name);

  // Three randomly pinned states: a fresh high-fidelity solve must sit
  // within the stored error bar of the served answer.
  std::mt19937 rng(42u);
  std::uniform_real_distribution<double> uv(domain.velocity_min_mps,
                                            domain.velocity_max_mps);
  std::uniform_real_distribution<double> ua(domain.altitude_min_m,
                                            domain.altitude_max_m);
  for (int k = 0; k < 3; ++k) {
    const double v = uv(rng), alt = ua(rng);
    const auto a = table->query(v, alt);
    scenario::Case fresh = *base;
    fresh.fidelity = scenario::Fidelity::kSmoke;
    fresh.condition = {v, alt};
    const auto r = scenario::run_case(fresh);
    EXPECT_LE(std::fabs(a.q_conv_W_m2 - r.metric("q_conv")),
              a.q_conv_err_W_m2)
        << "v=" << v << " alt=" << alt;
    EXPECT_LE(std::fabs(a.t_stag_K - r.metric("t_stag")), a.t_stag_err_K)
        << "v=" << v << " alt=" << alt;
  }

  // And the cheap half of the property test: 1000 random queries all
  // serve finite values with finite non-negative bars.
  for (int k = 0; k < 1000; ++k) {
    const auto a = table->query(uv(rng), ua(rng));
    EXPECT_TRUE(std::isfinite(a.q_conv_W_m2));
    EXPECT_TRUE(std::isfinite(a.q_conv_err_W_m2));
    EXPECT_GE(a.q_conv_err_W_m2, 0.0);
    EXPECT_GT(a.q_conv_W_m2, 0.0);
  }

  // Serve the anchor itself through the scenario runner.
  scenario::register_surrogate(table);
  scenario::Case served = *base;
  served.fidelity = scenario::Fidelity::kSurrogate;
  const auto r = scenario::run_case(served);
  EXPECT_EQ(r.solver, "surrogate");
  EXPECT_LE(std::fabs(r.metric("q_conv") -
                      table->query(served.condition.velocity_mps,
                                   served.condition.altitude_m)
                          .q_conv_W_m2),
            1e-9);
  EXPECT_GT(r.metric("q_conv_err"), 0.0);
}

TEST(Surrogate, RunCaseWithoutTableThrowsSolverError) {
  RegistryGuard guard;
  scenario::clear_surrogates();
  const scenario::Case* base = scenario::find_scenario("shuttle_stag_point");
  ASSERT_NE(base, nullptr);
  scenario::Case c = *base;
  c.fidelity = scenario::Fidelity::kSurrogate;
  EXPECT_THROW(scenario::run_case(c), SolverError);
}

TEST(Surrogate, BuilderRejectsUnsuitableBaseCases) {
  const scenario::Case* pulse = scenario::find_scenario("shuttle_orbiter_pulse");
  ASSERT_NE(pulse, nullptr);
  EXPECT_THROW(scenario::build_surrogate(*pulse, test_domain(3), {}),
               std::invalid_argument);

  const scenario::Case* tube = scenario::find_scenario("shock_tube_10kms_neq");
  ASSERT_NE(tube, nullptr);
  EXPECT_THROW(scenario::build_surrogate(*tube, test_domain(3), {}),
               std::invalid_argument);
}

}  // namespace
