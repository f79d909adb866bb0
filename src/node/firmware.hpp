// ehdoe/node/firmware.hpp
//
// The duty-cycled sensing application: wake periodically, sample, process,
// transmit, listen for the ack, sleep. When stored energy runs low the
// firmware backs off (stretches its period) rather than draining the node —
// the simple adaptive energy-aware policy of [2].
#pragma once

#include <cstddef>

#include "node/power_model.hpp"

namespace ehdoe::node {

struct FirmwareParams {
    double task_period = 10.0;       ///< nominal seconds between tasks
    std::size_t payload_bytes = 64;  ///< application payload per packet
    /// Below this storage voltage the firmware skips the radio and stretches
    /// its period by `backoff_factor`.
    double low_voltage_threshold = 2.2;
    double backoff_factor = 4.0;
    /// Above this voltage the nominal period is restored.
    double recover_voltage = 2.5;

    void validate() const;

    /// Duty cycle implied by the nominal period for a given power model.
    double duty_cycle(const NodePowerParams& power) const {
        return power.task_duration(payload_bytes) / task_period;
    }
    /// Period achieving a target duty cycle (used by the DoE factor mapping).
    static double period_for_duty(const NodePowerParams& power, std::size_t payload_bytes,
                                  double duty);
};

/// Firmware decision for one task instant.
enum class TaskDecision {
    Run,       ///< full task: sense + process + transmit
    SkipLow,   ///< voltage below threshold: skip, back off
    SkipOff,   ///< node browned out: nothing happens
};

/// Stateless policy evaluation + period adaptation state.
class Firmware {
public:
    Firmware(FirmwareParams params, NodePowerParams power);

    const FirmwareParams& params() const { return params_; }

    /// Decide what to do at a task instant given the storage voltage and
    /// whether the energy manager says the node is alive.
    TaskDecision decide(double v_store, bool node_alive);

    /// Current (possibly backed-off) period.
    double current_period() const { return period_; }
    bool backed_off() const { return backed_off_; }

    /// Energy of a full task (J, from storage).
    double task_energy() const { return power_.task_energy(params_.payload_bytes); }
    double task_duration() const { return power_.task_duration(params_.payload_bytes); }

private:
    FirmwareParams params_;
    NodePowerParams power_;
    double period_;
    bool backed_off_ = false;
};

}  // namespace ehdoe::node
