// ehdoe/harvester/storage.hpp
//
// Energy storage for the node-level (power-flow) simulation: a
// supercapacitor with leakage and ESR. The circuit-level engines model the
// storage capacitor directly inside the nodal network; this class is the
// lumped equivalent used by the long-horizon co-simulation, where state is
// the stored energy and power flows in/out between events.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

    /// What advance() applies: the time still to run and both powers
    /// clamped to >= 0.
    struct Flow {
        double remaining;
        double p_in;
        double p_out;
    };
    /// advance()'s flow for its arguments; throws std::invalid_argument
    /// unless dt >= 0.
    static Flow flow(double dt, double p_in, double p_out);
    /// One leakage sub-step of advance(): applies `f` for min(f.remaining,
    /// 50 ms) and takes that time off f.remaining, which must be > 0.
    /// advance() loops over it; node::simulate_nodes calls it to step
    /// several runs' storage updates in lockstep, one sub-step each in turn.
    void sub_advance(Flow& f);

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
    void set_energy(double e) {
        energy_ = e;
        voltage_ = std::sqrt(2.0 * energy_ / params_.capacitance);
    }

    StorageParams params_;
    double energy_ = 0.0;
    double voltage_ = 0.0;
    double leaked_ = 0.0;
    double rejected_ = 0.0;
    double delivered_ = 0.0;
    double accepted_ = 0.0;
};

// Inline, as are the node co-simulation's other per-substep helpers: the
// interleaved runs of node::simulate_nodes stay lean only when these calls
// compile into the substep.
inline Storage::Flow Storage::flow(double dt, double p_in, double p_out) {
    if (!(dt >= 0.0)) throw std::invalid_argument("Storage::advance: dt >= 0");
    return {dt, std::max(p_in, 0.0), std::max(p_out, 0.0)};
}

inline void Storage::advance(double dt, double p_in, double p_out) {
    Flow f = flow(dt, p_in, p_out);
    while (f.remaining > 0.0) sub_advance(f);
}

inline void Storage::sub_advance(Flow& f) {
    // Sub-step so the state-dependent leakage (V^2/R) stays accurate across
    // long gaps; 50 ms sub-steps are far below any leakage time constant.
    const double max_sub = 0.05;
    const double h = std::min(f.remaining, max_sub);
    f.remaining -= h;

    const double v = voltage_;
    const double p_leak = v * v / params_.leakage_resistance;
    double e_next = energy_ + (f.p_in - f.p_out - p_leak) * h;

    accepted_ += f.p_in * h;
    leaked_ += p_leak * h;

    if (e_next < 0.0) {
        // Storage exhausted mid-interval: deliver only what exists.
        const double deliverable = std::max(energy_ + (f.p_in - p_leak) * h, 0.0);
        delivered_ += std::min(f.p_out * h, deliverable);
        e_next = 0.0;
    } else {
        delivered_ += f.p_out * h;
    }

    const double e_max = 0.5 * params_.capacitance * params_.max_voltage * params_.max_voltage;
    if (e_next > e_max) {
        rejected_ += e_next - e_max;
        e_next = e_max;
    }
    set_energy(e_next);
}

}  // namespace ehdoe::harvester
