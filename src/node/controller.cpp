#include "node/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::node {

void TuningControllerParams::validate() const {
    if (!(check_period > 0.0))
        throw std::invalid_argument("TuningControllerParams: check_period > 0");
    if (!(deadband_hz >= 0.0))
        throw std::invalid_argument("TuningControllerParams: deadband_hz >= 0");
    if (!(estimator_sigma_hz >= 0.0))
        throw std::invalid_argument("TuningControllerParams: estimator_sigma_hz >= 0");
    if (!(min_voltage >= 0.0))
        throw std::invalid_argument("TuningControllerParams: min_voltage >= 0");
}

TuningController::TuningController(TuningControllerParams params,
                                   const harvester::TuningMap* map)
    : params_(params), map_(map), rng_(num::make_rng(params.rng_seed)) {
    params_.validate();
    if (map_ == nullptr) throw std::invalid_argument("TuningController: null tuning map");
}

CheckOutcome TuningController::check(double now, double true_freq_hz, double v_store,
                                     harvester::TuningActuator& actuator) {
    ++checks_;
    CheckOutcome out;
    // Zero-crossing estimator: unbiased with Gaussian resolution error. An
    // exact estimator (sigma 0) draws nothing: std::normal_distribution
    // requires sigma > 0.
    out.estimated_hz = params_.estimator_sigma_hz > 0.0
                           ? true_freq_hz + num::normal(rng_, 0.0, params_.estimator_sigma_hz)
                           : true_freq_hz;

    actuator.update(now);
    const double f_res_now = map_->frequency(actuator.position());

    const double mismatch = std::fabs(out.estimated_hz - f_res_now);
    if (mismatch <= params_.deadband_hz) return out;
    if (v_store < params_.min_voltage) return out;  // too weak to afford the move

    // Command the closest attainable frequency.
    out.target_hz = std::clamp(out.estimated_hz, map_->f_min(), map_->f_max());
    const double d_target = map_->separation_for(out.target_hz);
    out.move_time = actuator.command(d_target, now);
    out.retuned = out.move_time > 0.0;
    if (out.retuned) ++retunes_;
    return out;
}

}  // namespace ehdoe::node
