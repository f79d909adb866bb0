// ehdoe/node/energy_manager.hpp
//
// Supercapacitor hysteresis supervisor: the node browns out when the
// storage voltage drops below V_off and restarts only once it recovers
// above V_on (> V_off). The hysteresis band prevents oscillating around
// the brown-out point under bursty loads.
#pragma once

#include <cstddef>

namespace ehdoe::node {

struct EnergyManagerParams {
    double v_off = 1.9;  ///< brown-out threshold (V)
    double v_on = 2.4;   ///< restart threshold (V)

    void validate() const;
};

class EnergyManager {
public:
    /// `initially_alive` should reflect whether the starting voltage is
    /// above v_on (callers usually pass voltage >= v_on).
    EnergyManager(EnergyManagerParams params, bool initially_alive);

    const EnergyManagerParams& params() const { return params_; }
    bool alive() const { return alive_; }

    /// Observe the storage voltage; returns true if the alive/dead state
    /// changed (so the caller can log or account downtime boundaries).
    bool observe(double v_store) {
        if (alive_ && v_store < params_.v_off) {
            alive_ = false;
            ++brownouts_;
            return true;
        }
        if (!alive_ && v_store >= params_.v_on) {
            alive_ = true;
            return true;
        }
        return false;
    }

    /// Number of brown-out events so far.
    std::size_t brownouts() const { return brownouts_; }

private:
    EnergyManagerParams params_;
    bool alive_;
    std::size_t brownouts_ = 0;
};

}  // namespace ehdoe::node
