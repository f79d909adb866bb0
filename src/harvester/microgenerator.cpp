#include "harvester/microgenerator.hpp"

#include <stdexcept>

namespace ehdoe::harvester {

double MicrogeneratorParams::omega0() const { return 2.0 * M_PI * natural_freq_hz; }

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

SteadyStateTerms<double> steady_state_terms(const MicrogeneratorParams& p,
                                            double load_resistance) {
    const double rtot = p.coil_resistance + load_resistance;
    return {p.mass,
            p.spring_constant(),
            p.parasitic_damping(),
            p.coil_inductance,
            p.coupling,
            p.coil_resistance,
            load_resistance,
            rtot * rtot,
            p.coupling * p.coupling * rtot,
            -p.coupling * p.coupling};
}

double optimal_load_resistance(const MicrogeneratorParams& p) {
    p.validate();
    // At resonance with negligible coil reactance, dP/dR_L = 0 gives
    // R_L_opt = R_c + Phi^2 / c_p.
    return p.coil_resistance + p.coupling * p.coupling / p.parasitic_damping();
}

}  // namespace ehdoe::harvester
