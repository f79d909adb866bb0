#include "node/firmware.hpp"

#include <stdexcept>

namespace ehdoe::node {

void FirmwareParams::validate() const {
    if (!(task_period > 0.0)) throw std::invalid_argument("FirmwareParams: task_period > 0");
    if (payload_bytes == 0 || payload_bytes > 1024)
        throw std::invalid_argument("FirmwareParams: payload in 1..1024");
    if (!(low_voltage_threshold >= 0.0))
        throw std::invalid_argument("FirmwareParams: low_voltage_threshold >= 0");
    if (!(backoff_factor >= 1.0))
        throw std::invalid_argument("FirmwareParams: backoff_factor >= 1");
    if (!(recover_voltage >= low_voltage_threshold))
        throw std::invalid_argument("FirmwareParams: recover_voltage >= low_voltage_threshold");
}

double FirmwareParams::period_for_duty(const NodePowerParams& power, std::size_t payload_bytes,
                                       double duty) {
    if (!(duty > 0.0 && duty < 1.0))
        throw std::invalid_argument("period_for_duty: duty in (0,1)");
    return power.task_duration(payload_bytes) / duty;
}

Firmware::Firmware(FirmwareParams params, NodePowerParams power)
    : params_(params), power_(power), period_(params.task_period) {
    params_.validate();
    power_.validate();
}

TaskDecision Firmware::decide(double v_store, bool node_alive) {
    if (!node_alive) return TaskDecision::SkipOff;
    if (backed_off_ && v_store >= params_.recover_voltage) {
        backed_off_ = false;
        period_ = params_.task_period;
    }
    if (v_store < params_.low_voltage_threshold) {
        backed_off_ = true;
        period_ = params_.task_period * params_.backoff_factor;
        return TaskDecision::SkipLow;
    }
    return TaskDecision::Run;
}

}  // namespace ehdoe::node
