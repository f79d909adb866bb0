#include "harvester/storage.hpp"

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

void Storage::reset() {
    set_energy(0.5 * params_.capacitance * params_.initial_voltage * params_.initial_voltage);
    leaked_ = rejected_ = delivered_ = accepted_ = 0.0;
}

}  // namespace ehdoe::harvester
