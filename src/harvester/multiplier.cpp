#include "harvester/multiplier.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ehdoe::harvester {

double DiodeParams::shockley_current(double v) const {
    const double nvt = ideality * thermal_voltage;
    if (v <= linearize_above) {
        return saturation_current * (std::exp(v / nvt) - 1.0);
    }
    // Tangent continuation beyond the linearization knee: keeps Newton
    // iterations finite when a step overshoots into deep forward bias.
    const double e = std::exp(linearize_above / nvt);
    const double i0 = saturation_current * (e - 1.0);
    const double g0 = saturation_current * e / nvt;
    return i0 + g0 * (v - linearize_above);
}

void MultiplierParams::validate() const {
    if (stages == 0 || stages > kMaxStages)
        throw std::invalid_argument("MultiplierParams: stages in 1..15");
    if (!(stage_capacitance > 0.0))
        throw std::invalid_argument("MultiplierParams: stage_capacitance > 0");
    if (!(parasitic_capacitance > 0.0))
        throw std::invalid_argument("MultiplierParams: parasitic_capacitance > 0");
    if (!(diode.r_on > 0.0)) throw std::invalid_argument("MultiplierParams: diode r_on > 0");
    if (!(diode.v_on >= 0.0)) throw std::invalid_argument("MultiplierParams: diode v_on >= 0");
    if (!(diode.g_off >= 0.0)) throw std::invalid_argument("MultiplierParams: diode g_off >= 0");
    if (!(diode.saturation_current > 0.0))
        throw std::invalid_argument("MultiplierParams: diode I_s > 0");
    // shockley_current divides by n * V_T and compares with the knee: a zero
    // product gives NaN at 0 V, a negative one blows up under reverse bias,
    // and a NaN knee makes every current NaN.
    if (!(diode.ideality > 0.0 && std::isfinite(diode.ideality)))
        throw std::invalid_argument("MultiplierParams: diode ideality > 0 and finite");
    if (!(diode.thermal_voltage > 0.0 && std::isfinite(diode.thermal_voltage)))
        throw std::invalid_argument("MultiplierParams: diode thermal_voltage > 0 and finite");
    if (!std::isfinite(diode.linearize_above))
        throw std::invalid_argument("MultiplierParams: diode linearize_above finite");
}

MultiplierNetwork::MultiplierNetwork(MultiplierParams params, double storage_capacitance)
    : params_(params) {
    params_.validate();
    if (!(storage_capacitance >= 0.0))
        throw std::invalid_argument("MultiplierNetwork: storage_capacitance >= 0");

    const std::size_t n = params_.stages;
    const std::size_t m = num_nodes();
    cmat_ = num::Matrix(m, m);

    auto stamp_cap = [this](int p, int q, double c) {
        if (p >= 0) cmat_(static_cast<std::size_t>(p), static_cast<std::size_t>(p)) += c;
        if (q >= 0) cmat_(static_cast<std::size_t>(q), static_cast<std::size_t>(q)) += c;
        if (p >= 0 && q >= 0) {
            cmat_(static_cast<std::size_t>(p), static_cast<std::size_t>(q)) -= c;
            cmat_(static_cast<std::size_t>(q), static_cast<std::size_t>(p)) -= c;
        }
    };

    const double cs = params_.stage_capacitance;
    // Push column: v0 - a1, a1 - a2, ...
    stamp_cap(static_cast<int>(node_v0()), static_cast<int>(node_a(1)), cs);
    for (std::size_t j = 2; j <= n; ++j) {
        stamp_cap(static_cast<int>(node_a(j - 1)), static_cast<int>(node_a(j)), cs);
    }
    // Store column: gnd - d1, d1 - d2, ...
    stamp_cap(-1, static_cast<int>(node_d(1)), cs);
    for (std::size_t j = 2; j <= n; ++j) {
        stamp_cap(static_cast<int>(node_d(j - 1)), static_cast<int>(node_d(j)), cs);
    }
    // Parasitics on the AC column keep the capacitance matrix SPD.
    stamp_cap(static_cast<int>(node_v0()), -1, params_.parasitic_capacitance);
    for (std::size_t j = 1; j <= n; ++j) {
        stamp_cap(static_cast<int>(node_a(j)), -1, params_.parasitic_capacitance);
    }
    // Storage supercapacitor across the DC output.
    if (storage_capacitance > 0.0) {
        stamp_cap(static_cast<int>(output_node()), -1, storage_capacitance);
    }

    // Diode chain: D_{2j-1}: d_{j-1} -> a_j (d_0 = gnd), D_{2j}: a_j -> d_j.
    diodes_.reserve(2 * n);
    for (std::size_t j = 1; j <= n; ++j) {
        const int dprev = (j == 1) ? -1 : static_cast<int>(node_d(j - 1));
        diodes_.push_back(DiodeBranch{dprev, static_cast<int>(node_a(j))});
        diodes_.push_back(
            DiodeBranch{static_cast<int>(node_a(j)), static_cast<int>(node_d(j))});
    }
}

template <class Current>
void MultiplierNetwork::add_currents(double* inject, Current current) const {
    for (std::size_t k = 0; k < diodes_.size(); ++k) {
        const DiodeBranch& d = diodes_[k];
        const double i = current(k, d);
        if (d.anode >= 0) inject[d.anode] -= i;
        if (d.cathode >= 0) inject[d.cathode] += i;
    }
}

void MultiplierNetwork::add_shockley_currents(const double* v, double* inject,
                                              ShockleyMemo& memo) const {
    add_currents(inject, [&](std::size_t k, const DiodeBranch& d) {
        const double va = d.anode >= 0 ? v[d.anode] : 0.0;
        const double vc = d.cathode >= 0 ? v[d.cathode] : 0.0;
        const double vb = va - vc;
        std::uint64_t bits = 0;
        std::memcpy(&bits, &vb, sizeof bits);
        if (!memo.filled || bits != memo.v_bits[k]) {
            memo.v_bits[k] = bits;
            memo.current[k] = params_.diode.shockley_current(vb);
        }
        return memo.current[k];
    });
    memo.filled = true;
}

void MultiplierNetwork::add_moved_shockley_currents(const double* v, std::size_t node,
                                                    double v_node, const ShockleyMemo& memo,
                                                    double* inject) const {
    const int moved = static_cast<int>(node);
    const auto at = [&](int p) { return p < 0 ? 0.0 : p == moved ? v_node : v[p]; };
    add_currents(inject, [&](std::size_t k, const DiodeBranch& d) {
        if (d.anode != moved && d.cathode != moved) return memo.current[k];
        return params_.diode.shockley_current(at(d.anode) - at(d.cathode));
    });
}

void MultiplierNetwork::stamp_pwl(std::uint32_t seg, num::Matrix& g, num::Vector& s) const {
    const DiodeParams& dp = params_.diode;
    for (std::size_t k = 0; k < diodes_.size(); ++k) {
        const DiodeBranch& d = diodes_[k];
        const bool on = (seg >> k) & 1u;
        // Branch current i = gd*(va - vc) + i0 flowing anode -> cathode.
        const double gd = on ? 1.0 / dp.r_on : dp.g_off;
        const double i0 = on ? (dp.g_off * dp.v_on - dp.v_on / dp.r_on) : 0.0;

        const int p = d.anode, q = d.cathode;
        if (p >= 0) {
            const auto pi = static_cast<std::size_t>(p);
            g(pi, pi) -= gd;
            if (q >= 0) g(pi, static_cast<std::size_t>(q)) += gd;
            s[pi] -= i0;
        }
        if (q >= 0) {
            const auto qi = static_cast<std::size_t>(q);
            g(qi, qi) -= gd;
            if (p >= 0) g(qi, static_cast<std::size_t>(p)) += gd;
            s[qi] += i0;
        }
    }
}

}  // namespace ehdoe::harvester
