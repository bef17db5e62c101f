#pragma once
/// \file gas_model.hpp
/// The unified equation-of-state interface that couples real-gas physics
/// to the flow solvers — the architectural thesis of the paper ("The
/// combination of CFD and the modeling of real-gas phenomena ... forms the
/// basis of CAT"). The shock-capturing solvers only ever ask for
/// p(rho, e), a(rho, e) and T(rho, e); swapping an ideal-gas model for the
/// equilibrium-air table turns a classical CFD code into a CAT code with no
/// changes to the numerics.

#include <memory>

#include "gas/eos_table.hpp"
#include "gas/ideal_gas.hpp"

namespace cat::core {

/// EOS queries every finite-volume solver needs.
class GasModel {
 public:
  virtual ~GasModel() = default;
  virtual double pressure(double rho, double e) const = 0;
  virtual double sound_speed(double rho, double e) const = 0;
  virtual double temperature(double rho, double e) const = 0;
  /// {pressure, sound_speed, temperature} in one query, bitwise equal to
  /// the three calls above; the FV solvers' per-cell and per-face query.
  virtual gas::EosState state(double rho, double e) const = 0;
  /// Inverse: internal energy from (rho, p) for boundary/initial states.
  virtual double energy(double rho, double p) const = 0;
  /// Smallest internal energy the model accepts (positivity floor for the
  /// FV solvers): 0 for ideal gas, the table lower edge for tabulated EOS.
  virtual double min_energy() const { return 0.0; }
  virtual std::string name() const = 0;
};

/// Calorically perfect gas (constant gamma): the pre-CAT CFD baseline and
/// the "ideal gas (gamma = 1.2)" comparison model of Fig. 6.
class IdealGasModel final : public GasModel {
 public:
  explicit IdealGasModel(gas::IdealGas gas) : gas_(gas) {}
  double pressure(double rho, double e) const override {
    return gas_.pressure(rho, e);
  }
  double sound_speed(double rho, double e) const override {
    return gas_.sound_speed(rho, gas_.pressure(rho, e));
  }
  double temperature(double rho, double e) const override {
    return gas_.temperature(rho, gas_.pressure(rho, e));
  }
  gas::EosState state(double rho, double e) const override {
    const double p = gas_.pressure(rho, e);
    return {p, gas_.sound_speed(rho, p), gas_.temperature(rho, p)};
  }
  double energy(double rho, double p) const override {
    return gas_.internal_energy(rho, p);
  }
  std::string name() const override { return "ideal-gas"; }
  const gas::IdealGas& ideal() const { return gas_; }

 private:
  gas::IdealGas gas_;
};

/// Equilibrium real gas through the tabulated EOS.
class EquilibriumGasModel final : public GasModel {
 public:
  explicit EquilibriumGasModel(
      std::shared_ptr<const gas::EquilibriumEosTable> table)
      : table_(std::move(table)) {}
  double pressure(double rho, double e) const override {
    return table_->pressure(rho, e);
  }
  double sound_speed(double rho, double e) const override {
    return table_->sound_speed(rho, e);
  }
  double temperature(double rho, double e) const override {
    return table_->temperature(rho, e);
  }
  gas::EosState state(double rho, double e) const override {
    return table_->state(rho, e);
  }
  double energy(double rho, double p) const override {
    return table_->energy_from_pressure(rho, p);
  }
  double min_energy() const override { return table_->range().e_min; }
  std::string name() const override { return "equilibrium-air"; }
  const gas::EquilibriumEosTable& table() const { return *table_; }

 private:
  std::shared_ptr<const gas::EquilibriumEosTable> table_;
};

/// Build an equilibrium-air gas model whose table window covers a flight
/// condition: density window [rho_inf/20, rho_inf*rho_ratio_max*4] and an
/// energy window spanning freestream to total enthalpy at v_max.
std::shared_ptr<EquilibriumGasModel> make_equilibrium_air_model(
    double rho_inf, double t_inf, double v_max,
    std::size_t table_n = 48);

}  // namespace cat::core
