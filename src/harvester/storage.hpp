// ehdoe/harvester/storage.hpp
//
// Energy storage for the node-level (power-flow) simulation: a
// supercapacitor with leakage and ESR. The circuit-level engines model the
// storage capacitor directly inside the nodal network; this class is the
// lumped equivalent used by the long-horizon co-simulation, where state is
// the stored energy and power flows in/out between events.
#pragma once

namespace ehdoe::harvester {

struct StorageParams {
    double capacitance = 0.15;     ///< C (F)
    double initial_voltage = 2.6;  ///< V at t=0
    double max_voltage = 5.0;      ///< clamp (overvoltage protection)
    double leakage_resistance = 150e3;  ///< parallel R_leak (ohm)
    double esr = 0.5;              ///< series resistance (ohm), charge loss

    void validate() const;
};

/// Lumped supercapacitor: voltage/energy bookkeeping with leakage.
class Storage {
public:
    explicit Storage(StorageParams params);

    const StorageParams& params() const { return params_; }

    /// V = sqrt(2 E / C), kept in step with every energy update.
    double voltage() const { return voltage_; }
    /// Stored energy E = 1/2 C V^2 (J).
    double energy() const { return energy_; }

    /// Advance `dt` seconds with constant incoming power `p_in` (W, at the
    /// storage terminals, already net of converter losses) and constant
    /// outgoing power `p_out` (W). Leakage is applied internally. Voltage is
    /// clamped to [0, max_voltage]; energy rejected by the clamp is counted
    /// in `energy_rejected()`.
    void advance(double dt, double p_in, double p_out);

    /// Cumulative energy lost to leakage (J).
    double energy_leaked() const { return leaked_; }
    /// Cumulative energy rejected by the overvoltage clamp (J).
    double energy_rejected() const { return rejected_; }
    /// Cumulative energy delivered to the load (J).
    double energy_delivered() const { return delivered_; }
    /// Cumulative energy accepted from the harvester (J).
    double energy_accepted() const { return accepted_; }

    /// Reset to the initial state (keeps parameters).
    void reset();

private:
    void set_energy(double e);

    StorageParams params_;
    double energy_ = 0.0;
    double voltage_ = 0.0;
    double leaked_ = 0.0;
    double rejected_ = 0.0;
    double delivered_ = 0.0;
    double accepted_ = 0.0;
};

}  // namespace ehdoe::harvester
