#include "harvester/storage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::harvester {

void StorageParams::validate() const {
    if (!(capacitance > 0.0)) throw std::invalid_argument("StorageParams: capacitance > 0");
    if (!(initial_voltage >= 0.0))
        throw std::invalid_argument("StorageParams: initial_voltage >= 0");
    if (!(max_voltage > 0.0)) throw std::invalid_argument("StorageParams: max_voltage > 0");
    if (initial_voltage > max_voltage)
        throw std::invalid_argument("StorageParams: initial_voltage <= max_voltage");
    if (!(leakage_resistance > 0.0))
        throw std::invalid_argument("StorageParams: leakage_resistance > 0");
    if (!(esr >= 0.0)) throw std::invalid_argument("StorageParams: esr >= 0");
}

Storage::Storage(StorageParams params) : params_(params) {
    params_.validate();
    reset();
}

void Storage::set_energy(double e) {
    energy_ = e;
    voltage_ = std::sqrt(2.0 * energy_ / params_.capacitance);
}

void Storage::advance(double dt, double p_in, double p_out) {
    if (!(dt >= 0.0)) throw std::invalid_argument("Storage::advance: dt >= 0");
    if (dt == 0.0) return;
    p_in = std::max(p_in, 0.0);
    p_out = std::max(p_out, 0.0);

    // Sub-step so the state-dependent leakage (V^2/R) stays accurate across
    // long gaps; 50 ms sub-steps are far below any leakage time constant.
    const double max_sub = 0.05;
    double remaining = dt;
    while (remaining > 0.0) {
        const double h = std::min(remaining, max_sub);
        remaining -= h;

        const double v = voltage_;
        const double p_leak = v * v / params_.leakage_resistance;
        double e_next = energy_ + (p_in - p_out - p_leak) * h;

        accepted_ += p_in * h;
        leaked_ += p_leak * h;

        if (e_next < 0.0) {
            // Storage exhausted mid-interval: deliver only what exists.
            const double deliverable = std::max(energy_ + (p_in - p_leak) * h, 0.0);
            delivered_ += std::min(p_out * h, deliverable);
            e_next = 0.0;
        } else {
            delivered_ += p_out * h;
        }

        const double e_max = 0.5 * params_.capacitance * params_.max_voltage * params_.max_voltage;
        if (e_next > e_max) {
            rejected_ += e_next - e_max;
            e_next = e_max;
        }
        set_energy(e_next);
    }
}

void Storage::reset() {
    set_energy(0.5 * params_.capacitance * params_.initial_voltage * params_.initial_voltage);
    leaked_ = rejected_ = delivered_ = accepted_ = 0.0;
}

}  // namespace ehdoe::harvester
