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

#include "numerics/pair.hpp"

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
/// for power-flow estimates and analytic tests. One field per lane of T
/// (see solve_steady_state).
template <class T>
struct BasicSteadyState {
    T displacement_amplitude;  ///< |z| (m)
    T velocity_amplitude;      ///< |z'| (m/s)
    T current_amplitude;       ///< |i| (A)
    T emf_amplitude;           ///< |e| = Phi |z'| (V)
    T power_load;              ///< average power into R_L (W)
    T power_parasitic;         ///< average power lost in c_p and R_c (W)
    T electrical_damping;      ///< c_e = Phi^2 (R_L+R_c) / (...) (N s/m)
};
using SteadyState = BasicSteadyState<double>;

/// The terms of the steady-state solve that depend only on the device and
/// its load R_L, one device per lane of T. steady_state_terms() forms them
/// with the solve's own expressions, so solving from them gives the bits of
/// forming them in the solve.
template <class T>
struct SteadyStateTerms {
    T mass;               ///< m
    T spring_constant;    ///< untuned k
    T parasitic_damping;  ///< c_p
    T coil_inductance;    ///< L_c
    T coupling;           ///< Phi
    T coil_resistance;    ///< R_c
    T load_resistance;    ///< R_L
    T r_tot_squared;      ///< (R_c + R_L) (R_c + R_L)
    T phi2_r_tot;         ///< Phi Phi (R_c + R_L)
    T neg_phi2;           ///< (-Phi) Phi
};

SteadyStateTerms<double> steady_state_terms(const MicrogeneratorParams& params,
                                            double load_resistance);

/// Two devices' terms side by side: `a` in the low lane, `b` in the high one.
inline SteadyStateTerms<num::Pair> pair_terms(const SteadyStateTerms<double>& a,
                                              const SteadyStateTerms<double>& b) {
    using num::Pair;
    return {Pair{a.mass, b.mass},
            Pair{a.spring_constant, b.spring_constant},
            Pair{a.parasitic_damping, b.parasitic_damping},
            Pair{a.coil_inductance, b.coil_inductance},
            Pair{a.coupling, b.coupling},
            Pair{a.coil_resistance, b.coil_resistance},
            Pair{a.load_resistance, b.load_resistance},
            Pair{a.r_tot_squared, b.r_tot_squared},
            Pair{a.phi2_r_tot, b.phi2_r_tot},
            Pair{a.neg_phi2, b.neg_phi2}};
}

/// Analytic steady state under a(t) = A sin(w t) with resistive load R_L,
/// coil inductance included (impedance magnitude at w). The solve is
/// unchecked and runs over the lane type T: double solves one device,
/// num::Pair two at once, one per lane. Each lane performs exactly the
/// scalar IEEE operations in the same order (the build keeps the compiler
/// from fusing them), so its bits are the double solve's. `spring_k` models
/// the tuned device; <= 0 selects the untuned spring.
template <class T>
BasicSteadyState<T> solve_steady_state(const SteadyStateTerms<T>& d, T accel_amplitude,
                                       T excitation_hz, T spring_k);

/// Load resistance maximizing P_L at resonance for this device
/// (R_L_opt = R_c + Phi^2 / c_p at w = w0 for the ideal model).
double optimal_load_resistance(const MicrogeneratorParams& params);

// In the header, as are the node co-simulation's other per-substep
// helpers: S2's drifting line solves the steady state every substep, and
// node::simulate_nodes solves two runs' at once; both stay lean only when
// the solve compiles into the substep.
template <class T>
inline BasicSteadyState<T> solve_steady_state(const SteadyStateTerms<T>& d, T accel_amplitude,
                                              T excitation_hz, T spring_k) {
    using num::sqrt;
    using std::sqrt;
    const T w = 2.0 * M_PI * excitation_hz;
    const T k = num::select(spring_k > T{}, spring_k, d.spring_constant);
    const T xl = w * d.coil_inductance;
    const T zmag2 = d.r_tot_squared + xl * xl;

    // Electrical damping reflected into the mechanics: the in-phase part of
    // Phi^2 / Z(jw).
    const T ce = d.phi2_r_tot / zmag2;
    // Reactive part shifts the effective stiffness slightly (usually tiny).
    const T dk = d.neg_phi2 * xl * w / zmag2;

    const T denom_re = (k + dk) - d.mass * w * w;
    const T denom_im = (d.parasitic_damping + ce) * w;
    const T zamp = d.mass * accel_amplitude / sqrt(denom_re * denom_re + denom_im * denom_im);
    const T vamp = w * zamp;
    const T emf = d.coupling * vamp;
    const T iamp = emf / sqrt(zmag2);

    BasicSteadyState<T> s;
    s.displacement_amplitude = zamp;
    s.velocity_amplitude = vamp;
    s.current_amplitude = iamp;
    s.emf_amplitude = emf;
    s.power_load = 0.5 * iamp * iamp * d.load_resistance;
    s.power_parasitic =
        0.5 * d.parasitic_damping * vamp * vamp + 0.5 * iamp * iamp * d.coil_resistance;
    s.electrical_damping = ce;
    return s;
}

}  // namespace ehdoe::harvester
