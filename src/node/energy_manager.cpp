#include "node/energy_manager.hpp"

#include <cstddef>
#include <stdexcept>

namespace ehdoe::node {

void EnergyManagerParams::validate() const {
    if (!(v_off >= 0.0)) throw std::invalid_argument("EnergyManagerParams: v_off >= 0");
    if (!(v_on > v_off)) throw std::invalid_argument("EnergyManagerParams: v_on > v_off");
}

EnergyManager::EnergyManager(EnergyManagerParams params, bool initially_alive)
    : params_(params), alive_(initially_alive) {
    params_.validate();
}

}  // namespace ehdoe::node
