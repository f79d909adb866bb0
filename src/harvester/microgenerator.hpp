// ehdoe/harvester/microgenerator.hpp
//
// Electromagnetic cantilever microgenerator (the transducer of [2]):
// a seismic mass on a tunable spring, with a coil moving through a magnetic
// field. Relative displacement z of the mass obeys
//
//     m z" + c_p z' + k z + Phi*i = -m a(t)
//
// and the coil circuit sees the back-EMF  e = Phi * z'  behind R_c and L_c.
// Phi (often written Bl) is the electromagnetic coupling in V.s/m == N/A.
//
// This header also carries the closed-form steady-state theory for the
// *linear* harvester with a resistive load — used by the fast power-flow
// model, by tests (analytic ground truth) and by the F1 bench.
#pragma once

#include <cmath>
#include <cstddef>

namespace ehdoe::harvester {

/// Physical parameters of the electromagnetic microgenerator.
/// Defaults model a ~8 g proof-mass tunable cantilever resonating at 65 Hz
/// with a high-turn-count coil, in the published parameter ranges of [2]
/// (chosen so the multiplied DC output can sustain a 2.5-3 V node rail from
/// sub-m/s^2 excitation).
struct MicrogeneratorParams {
    double mass = 8.0e-3;          ///< proof mass (kg)
    double natural_freq_hz = 65.0; ///< untuned resonant frequency (Hz)
    double mechanical_q = 120.0;   ///< mechanical quality factor (parasitic)
    double coupling = 15.0;        ///< Phi = Bl (V s / m)
    double coil_resistance = 400.0;///< R_c (ohm)
    double coil_inductance = 0.05; ///< L_c (H)
    double max_displacement = 1.5e-3; ///< end-stop travel limit (m), for checks

    /// Spring constant k = m (2 pi f)^2 for the *untuned* device.
    double spring_constant() const;
    /// Parasitic damping c_p = m w0 / Q.
    double parasitic_damping() const;
    /// Angular natural frequency (rad/s).
    double omega0() const;

    /// Throws std::invalid_argument when any parameter is non-physical.
    void validate() const;
};

/// Steady-state response of the linear harvester with a resistive load R_L
/// attached directly to the coil (no multiplier): the textbook model used
/// for power-flow estimates and analytic tests.
struct SteadyState {
    double displacement_amplitude;  ///< |z| (m)
    double velocity_amplitude;      ///< |z'| (m/s)
    double current_amplitude;       ///< |i| (A)
    double emf_amplitude;           ///< |e| = Phi |z'| (V)
    double power_load;              ///< average power into R_L (W)
    double power_parasitic;         ///< average power lost in c_p and R_c (W)
    double electrical_damping;      ///< c_e = Phi^2 (R_L+R_c) / (...) (N s/m)
};

/// Analytic steady state under a(t) = A sin(w t) with resistive load R_L.
/// Coil inductance is included (impedance magnitude at w).
/// `params.spring_constant()` can be overridden by `spring_k` to model the
/// tuned device (pass <= 0 to use the untuned value).
SteadyState steady_state_response(const MicrogeneratorParams& params, double accel_amplitude,
                                  double excitation_hz, double load_resistance,
                                  double spring_k = -1.0);

/// steady_state_response without its checks, for a caller that validated
/// `params` once and checks its own arguments (the power-flow model's
/// per-substep solve). Same arithmetic, so bitwise equal results.
inline SteadyState steady_state_response_unchecked(const MicrogeneratorParams& params,
                                                   double accel_amplitude, double excitation_hz,
                                                   double load_resistance, double spring_k);

/// Load resistance maximizing P_L at resonance for this device
/// (R_L_opt = R_c + Phi^2 / c_p at w = w0 for the ideal model).
double optimal_load_resistance(const MicrogeneratorParams& params);

/// Average load power at resonance with the optimal resistive load —
/// the harvester's power ceiling for a given excitation amplitude.
double max_power_at_resonance(const MicrogeneratorParams& params, double accel_amplitude);

// Inline, as are the node co-simulation's other per-substep helpers: S2's
// drifting line solves the steady state every substep, and the interleaved
// runs of node::simulate_nodes stay lean only when that solve compiles into
// the substep.
inline double MicrogeneratorParams::omega0() const { return 2.0 * M_PI * natural_freq_hz; }

inline double MicrogeneratorParams::spring_constant() const {
    const double w0 = omega0();
    return mass * w0 * w0;
}

inline double MicrogeneratorParams::parasitic_damping() const {
    return mass * omega0() / mechanical_q;
}

inline SteadyState steady_state_response_unchecked(const MicrogeneratorParams& p,
                                                   double accel_amplitude, double excitation_hz,
                                                   double load_resistance, double spring_k) {
    const double w = 2.0 * M_PI * excitation_hz;
    const double k = spring_k > 0.0 ? spring_k : p.spring_constant();
    const double cp = p.parasitic_damping();
    const double rtot = p.coil_resistance + load_resistance;
    const double xl = w * p.coil_inductance;
    const double zmag2 = rtot * rtot + xl * xl;

    // Electrical damping reflected into the mechanics: the in-phase part of
    // Phi^2 / Z(jw).
    const double ce = p.coupling * p.coupling * rtot / zmag2;
    // Reactive part shifts the effective stiffness slightly (usually tiny).
    const double dk = -p.coupling * p.coupling * xl * w / zmag2;

    const double denom_re = (k + dk) - p.mass * w * w;
    const double denom_im = (cp + ce) * w;
    const double zamp =
        p.mass * accel_amplitude / std::sqrt(denom_re * denom_re + denom_im * denom_im);
    const double vamp = w * zamp;
    const double emf = p.coupling * vamp;
    const double iamp = emf / std::sqrt(zmag2);

    SteadyState s;
    s.displacement_amplitude = zamp;
    s.velocity_amplitude = vamp;
    s.current_amplitude = iamp;
    s.emf_amplitude = emf;
    s.power_load = 0.5 * iamp * iamp * load_resistance;
    s.power_parasitic = 0.5 * cp * vamp * vamp + 0.5 * iamp * iamp * p.coil_resistance;
    s.electrical_damping = ce;
    return s;
}

}  // namespace ehdoe::harvester
