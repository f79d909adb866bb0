#include "harvester/microgenerator.hpp"

#include <cmath>
#include <stdexcept>

namespace ehdoe::harvester {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}

double MicrogeneratorParams::omega0() const { return kTwoPi * natural_freq_hz; }

double MicrogeneratorParams::spring_constant() const {
    const double w0 = omega0();
    return mass * w0 * w0;
}

double MicrogeneratorParams::parasitic_damping() const {
    return mass * omega0() / mechanical_q;
}

void MicrogeneratorParams::validate() const {
    if (!(mass > 0.0)) throw std::invalid_argument("MicrogeneratorParams: mass > 0");
    if (!(natural_freq_hz > 0.0))
        throw std::invalid_argument("MicrogeneratorParams: natural_freq_hz > 0");
    if (!(mechanical_q > 0.0)) throw std::invalid_argument("MicrogeneratorParams: Q > 0");
    if (!(coupling > 0.0)) throw std::invalid_argument("MicrogeneratorParams: coupling > 0");
    if (!(coil_resistance > 0.0))
        throw std::invalid_argument("MicrogeneratorParams: coil_resistance > 0");
    if (!(coil_inductance >= 0.0))
        throw std::invalid_argument("MicrogeneratorParams: coil_inductance >= 0");
    if (!(max_displacement > 0.0))
        throw std::invalid_argument("MicrogeneratorParams: max_displacement > 0");
}

SteadyState steady_state_response(const MicrogeneratorParams& p, double accel_amplitude,
                                  double excitation_hz, double load_resistance,
                                  double spring_k) {
    p.validate();
    if (!(accel_amplitude >= 0.0))
        throw std::invalid_argument("steady_state_response: accel_amplitude >= 0");
    if (!(excitation_hz > 0.0))
        throw std::invalid_argument("steady_state_response: excitation_hz > 0");
    if (!(load_resistance >= 0.0))
        throw std::invalid_argument("steady_state_response: load_resistance >= 0");
    return steady_state_response_unchecked(p, accel_amplitude, excitation_hz, load_resistance,
                                           spring_k);
}

SteadyState steady_state_response_unchecked(const MicrogeneratorParams& p,
                                            double accel_amplitude, double excitation_hz,
                                            double load_resistance, double spring_k) {
    const double w = kTwoPi * excitation_hz;
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

double optimal_load_resistance(const MicrogeneratorParams& p) {
    p.validate();
    // At resonance with negligible coil reactance, dP/dR_L = 0 gives
    // R_L_opt = R_c + Phi^2 / c_p.
    return p.coil_resistance + p.coupling * p.coupling / p.parasitic_damping();
}

double max_power_at_resonance(const MicrogeneratorParams& p, double accel_amplitude) {
    const double rl = optimal_load_resistance(p);
    return steady_state_response(p, accel_amplitude, p.natural_freq_hz, rl).power_load;
}

}  // namespace ehdoe::harvester
