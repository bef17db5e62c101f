// Tests for the io module (tables, CSV, contours, bounded binary
// readers) and the core layer (gas models, heating correlations,
// heating-pulse driver).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>

#include "atmosphere/atmosphere.hpp"
#include "core/error.hpp"
#include "gas/constants.hpp"
#include "core/gas_model.hpp"
#include "core/heating.hpp"
#include "io/binary.hpp"
#include "io/contour.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "scenario/pulse.hpp"

namespace {

using namespace cat;

TEST(IoTable, FormatsRows) {
  io::Table t("demo");
  t.set_columns({"a", "b"});
  t.add_row({1.0, 2.5});
  t.add_row({3.0, -4.0});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(t.n_rows(), 2u);
}

TEST(IoTable, RejectsRaggedRow) {
  io::Table t("demo");
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
}

TEST(IoCsv, RoundTripThroughFile) {
  io::Table t("csv");
  t.set_columns({"x", "y"});
  t.add_row({1.0, 10.0});
  t.add_row({2.0, 20.0});
  const std::string path = "/tmp/cataero_test.csv";
  io::write_csv(t, path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "x,y");
  std::getline(f, line);
  EXPECT_EQ(line, "1,10");
  std::remove(path.c_str());
}

TEST(IoCsv, ParseRoundTripsWriter) {
  const std::string path = "/tmp/cataero_parse_test.csv";
  io::write_csv(path, {"v", "alt"}, {{1.5, 2.5}, {10.0, 20.0}});
  const io::CsvData csv = io::read_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(csv.headers.size(), 2u);
  EXPECT_EQ(csv.headers[0], "v");
  EXPECT_EQ(csv.headers[1], "alt");
  ASSERT_EQ(csv.n_rows(), 2u);
  EXPECT_DOUBLE_EQ(csv.columns[0][1], 2.5);
  EXPECT_DOUBLE_EQ(csv.columns[1][0], 10.0);
}

TEST(IoCsv, ParseAcceptsCrlfAndHeaderOnly) {
  const io::CsvData crlf = io::parse_csv("a,b\r\n1,2\r\n");
  EXPECT_EQ(crlf.n_rows(), 1u);
  EXPECT_DOUBLE_EQ(crlf.columns[1][0], 2.0);
  const io::CsvData head = io::parse_csv("a,b\n");
  EXPECT_EQ(head.headers.size(), 2u);
  EXPECT_EQ(head.n_rows(), 0u);
}

TEST(IoCsv, ParseRejectsMalformedInput) {
  EXPECT_THROW(io::parse_csv(""), Error);
  EXPECT_THROW(io::parse_csv("a,b\n1\n"), Error);        // ragged row
  EXPECT_THROW(io::parse_csv("a,b\n1,two\n"), Error);    // non-numeric
  EXPECT_THROW(io::parse_csv("a,b\n1,1e999\n"), Error);  // overflows to inf
  EXPECT_THROW(io::parse_csv("a,b\n1,nan\n"), Error);    // non-finite
  EXPECT_THROW(io::parse_csv("a,,b\n1,2,3\n"), Error);   // empty header
  EXPECT_THROW(io::parse_csv("a,b\n1,2\n\n3,4\n"), Error);  // data after blank
}

TEST(IoCsv, ReadCsvMissingFileThrowsError) {
  EXPECT_THROW(io::read_csv("/nonexistent/x.csv"), Error);
}

TEST(IoBinary, MemoryWriterMemoryReaderRoundTrip) {
  io::MemoryWriter w;
  w.write_magic("CATTEST1");
  w.write_u64(42);
  w.write_f64(2.5);
  w.write_f64s(std::vector<double>{1.0, 2.0, 3.0});
  w.write_string("hello");
  const std::string& bytes = w.bytes();
  io::MemoryReader r(bytes.data(), bytes.size(), "round-trip");
  r.expect_magic("CATTEST1");
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_DOUBLE_EQ(r.read_f64(), 2.5);
  const auto v = r.read_f64s(3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(IoBinary, HugeCountRejectedBeforeAllocation) {
  // A count field near SIZE_MAX must throw cat::Error from the bounds
  // check — not std::length_error / std::bad_alloc from a doomed resize.
  io::MemoryWriter w;
  w.write_u64(0);
  const std::string& bytes = w.bytes();
  io::MemoryReader r(bytes.data(), bytes.size());
  EXPECT_THROW(
      r.read_f64s(std::numeric_limits<std::size_t>::max() / 16), Error);
}

TEST(IoBinary, TruncatedPayloadRejected) {
  io::MemoryWriter w;
  w.write_f64(1.0);
  const std::string& bytes = w.bytes();
  io::MemoryReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.read_f64s(2), Error);  // claims more than remaining()
}

TEST(IoBinary, ReadCountEnforcesCapAndRemaining) {
  {
    io::MemoryWriter w;
    w.write_u64(1000);  // count far beyond the bytes that follow
    const std::string& bytes = w.bytes();
    io::MemoryReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.read_count(sizeof(double), 1u << 20, "array"), Error);
  }
  {
    io::MemoryWriter w;
    w.write_u64(3);  // over the caller's max_count
    w.write_f64s(std::vector<double>{1.0, 2.0, 3.0});
    const std::string& bytes = w.bytes();
    io::MemoryReader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.read_count(sizeof(double), 2, "array"), Error);
  }
  {
    io::MemoryWriter w;
    w.write_u64(3);
    w.write_f64s(std::vector<double>{1.0, 2.0, 3.0});
    const std::string& bytes = w.bytes();
    io::MemoryReader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.read_count(sizeof(double), 1u << 20, "array"), 3u);
    EXPECT_EQ(r.read_f64s(3).size(), 3u);
  }
}

TEST(IoBinary, OversizeStringLengthRejected) {
  io::MemoryWriter w;
  w.write_u64(std::uint64_t{1} << 63);
  const std::string& bytes = w.bytes();
  io::MemoryReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.read_string(), Error);
}

TEST(IoBinary, FileReaderTracksRemaining) {
  const std::string path = "/tmp/cataero_binary_remaining.bin";
  {
    io::BinaryWriter w(path);
    w.write_magic("CATTEST1");
    w.write_u64(7);
    w.close();
  }
  io::BinaryReader r(path);
  EXPECT_EQ(r.remaining(), 16u);
  EXPECT_EQ(r.read_magic(), "CATTEST1");
  EXPECT_EQ(r.remaining(), 8u);
  EXPECT_EQ(r.read_u64(), 7u);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.read_u64(), Error);
  std::remove(path.c_str());
}

TEST(IoContour, AsciiCoversField) {
  std::vector<io::FieldPoint> pts;
  for (int i = 0; i <= 10; ++i)
    for (int j = 0; j <= 10; ++j)
      pts.push_back({0.1 * i, 0.1 * j, 0.01 * i * j});
  const std::string art = io::ascii_contour(pts, 20, 10, 0.0, 1.0);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 10);
  // Contains both low and high bands.
  EXPECT_NE(art.find('0'), std::string::npos);
  EXPECT_NE(art.find('9'), std::string::npos);
}

TEST(IoContour, IsoContourCrossings) {
  // Field value = x along rows of length 5: the 0.5 contour lies between
  // columns 2 and 3 (x = 0.2*i).
  std::vector<io::FieldPoint> pts;
  for (int r = 0; r < 3; ++r)
    for (int i = 0; i < 5; ++i)
      pts.push_back({0.25 * i, 1.0 * r, 0.25 * i});
  const auto c = io::iso_contours(pts, 5, {0.6});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].size(), 3u);  // one crossing per row
  for (const auto& p : c[0]) EXPECT_NEAR(p.x, 0.6, 1e-12);
}

TEST(GasModel, IdealModelConsistent) {
  core::IdealGasModel m(gas::IdealGas(1.4, 287.0));
  const double rho = 0.5, p = 2e4;
  const double e = m.energy(rho, p);
  EXPECT_NEAR(m.pressure(rho, e), p, 1e-9 * p);
  EXPECT_NEAR(m.temperature(rho, e), p / (rho * 287.0), 1e-9);
  EXPECT_NEAR(m.sound_speed(rho, e), std::sqrt(1.4 * p / rho), 1e-9);
  EXPECT_EQ(m.min_energy(), 0.0);
}

TEST(GasModel, EquilibriumModelSoftensGamma) {
  auto m = core::make_equilibrium_air_model(1e-3, 250.0, 7000.0, 32);
  // Post-shock-like state: strongly excited/dissociating air has an
  // effective gamma well below 1.4.
  const double rho = 5e-3;
  const double e = 1.5e7;
  const double gamma_eff = m->pressure(rho, e) / (rho * e) + 1.0;
  EXPECT_LT(gamma_eff, 1.3);
  EXPECT_GT(gamma_eff, 1.05);
  EXPECT_GT(m->sound_speed(rho, e), 500.0);
}

TEST(Heating, FayRiddellMagnitude) {
  // Representative shuttle-entry inputs reproduce the tens-of-W/cm^2
  // stagnation heating scale.
  core::FayRiddellInputs in;
  in.rho_e = 2.3e-3;
  in.mu_e = 1.6e-4;
  in.rho_w = 1.5e-2;
  in.mu_w = 5.0e-5;
  in.du_dx = 1800.0;
  in.h0_e = 2.2e7;
  in.h_w = 1.2e6;
  in.h_dissociation = 1.4e7;
  const double q = core::fay_riddell(in);
  EXPECT_GT(q, 2e5);
  EXPECT_LT(q, 1.5e6);
}

TEST(Heating, SuttonGravesScaling) {
  const double q1 = core::sutton_graves(1e-4, 7000.0, 1.0);
  EXPECT_NEAR(core::sutton_graves(4e-4, 7000.0, 1.0), 2.0 * q1, 1e-9 * q1);
  EXPECT_NEAR(core::sutton_graves(1e-4, 14000.0, 1.0), 8.0 * q1, 1e-6 * q1);
  EXPECT_NEAR(core::sutton_graves(1e-4, 7000.0, 4.0), 0.5 * q1, 1e-9 * q1);
}

TEST(Heating, TauberSuttonSteepVelocityDependence) {
  const double q10 = core::tauber_sutton_radiative(1e-4, 10000.0, 1.0);
  const double q12 = core::tauber_sutton_radiative(1e-4, 12000.0, 1.0);
  EXPECT_GT(q12 / q10, 3.0);  // ~V^8.5
}

TEST(Heating, NewtonianGradient) {
  const double dudx = core::newtonian_velocity_gradient(1.0, 1e4, 10.0, 0.01);
  EXPECT_NEAR(dudx, std::sqrt(2.0 * (1e4 - 10.0) / 0.01), 1e-9);
}

TEST(Driver, HeatingPulseShape) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationOptions sopt;
  sopt.n_table = 24;
  sopt.include_radiation = false;  // keep the test fast
  solvers::StagnationLineSolver stag(eq, sopt);
  atmosphere::EarthAtmosphere atmo;
  const auto probe = trajectory::galileo_class_probe();
  const auto traj = trajectory::integrate_entry(
      probe, {9000.0, -6.0 * M_PI / 180.0, 115000.0}, atmo,
      gas::constants::kEarthRadius, gas::constants::kEarthG0);
  scenario::PulseOptions popt;
  popt.max_points = 14;
  const auto result = scenario::heating_pulse(traj, probe, stag, popt);
  const auto& pulse = result.points;
  ASSERT_GT(pulse.size(), 5u);
  // The pulse rises then falls: peak strictly inside.
  std::size_t k_peak = 0;
  for (std::size_t k = 0; k < pulse.size(); ++k)
    if (pulse[k].q_conv > pulse[k_peak].q_conv) k_peak = k;
  EXPECT_GT(k_peak, 0u);
  EXPECT_LT(k_peak, pulse.size() - 1);
  EXPECT_GT(result.heat_load(), 0.0);
}

}  // namespace
