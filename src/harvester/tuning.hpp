// ehdoe/harvester/tuning.hpp
//
// Mechanical resonance tuning (the "tunable" in the paper's title).
// Following [2], the resonant frequency is shifted by changing the axial
// separation d between a pair of tuning magnets: smaller separation ->
// larger magnetic stiffness -> higher resonant frequency. The relationship
// f_res(d) is a measured calibration curve; here it is represented by a
// cubic spline through a synthetic calibration table with the published
// shape (monotone decreasing, ~65-85 Hz over a few mm of travel).
//
// A linear actuator (lead-screw + stepper in the prototype) moves the
// magnets. Moving costs time (finite speed) and energy (motor power), which
// is exactly the overhead the tuning controller must amortize — one of the
// central trade-offs the DoE explores.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "numerics/interp.hpp"

namespace ehdoe::harvester {

/// Calibration map d (mm) -> f_res (Hz). Monotone decreasing in d.
class TuningMap {
public:
    /// Build from explicit calibration points (strictly increasing d).
    TuningMap(std::vector<double> separation_mm, std::vector<double> freq_hz);

    /// Default synthetic calibration: f(d) = f_min + (f_max - f_min) *
    /// exp(-(d - d_min)/lambda), sampled at 9 points and splined — the shape
    /// reported for magnetic-stiffness tuning in [2].
    static TuningMap synthetic(double d_min_mm = 0.5, double d_max_mm = 5.0,
                               double f_min_hz = 65.0, double f_max_hz = 85.0,
                               double lambda_mm = 1.4);

    /// Resonant frequency at separation d (clamped to the calibrated range).
    double frequency(double d_mm) const;
    /// Inverse: separation achieving frequency f (clamped to attainable).
    double separation_for(double f_hz) const;

    double d_min() const { return d_min_; }
    double d_max() const { return d_max_; }
    double f_min() const { return f_min_; }
    double f_max() const { return f_max_; }

private:
    num::CubicSpline spline_;
    double d_min_, d_max_, f_min_, f_max_;
};

/// Linear actuator moving the tuning magnets.
struct ActuatorParams {
    double speed_mm_per_s = 1.0;   ///< travel speed
    double power_w = 0.001;        ///< electrical power while moving
    double holding_power_w = 0.0;  ///< leadscrews are self-locking: 0 by default
    double min_step_mm = 0.01;     ///< mechanical resolution
};

/// Stateful actuator: tracks position, accumulates motion energy, knows
/// whether a move is in progress (the harvester detunes while moving —
/// modelled as the frequency sweeping with the magnet position).
class TuningActuator {
public:
    TuningActuator(ActuatorParams params, double initial_position_mm);

    const ActuatorParams& params() const { return params_; }
    double position() const { return pos_; }
    bool moving() const { return moving_; }
    double target() const { return target_; }

    /// Command a move; returns the time (s) it will take. A new command
    /// pre-empts an in-flight one from the current position.
    double command(double target_mm, double now_s);

    /// Advance the actuator's internal clock; updates position and energy.
    void update(double now_s);

    /// Total electrical energy drawn by the actuator so far (J).
    double energy_consumed(double now_s) const;

    /// Number of move commands issued.
    std::size_t moves() const { return moves_; }
    /// Total travel distance so far (mm).
    double travel() const { return travel_; }

private:
    ActuatorParams params_;
    double pos_;
    double target_;
    bool moving_ = false;
    double move_start_time_ = 0.0;
    double move_start_pos_ = 0.0;
    double energy_ = 0.0;       ///< completed-move energy
    double last_update_ = 0.0;
    std::size_t moves_ = 0;
    double travel_ = 0.0;
};

// Inline, like Storage::advance: the node co-simulation calls both every
// substep.
inline void TuningActuator::update(double now_s) {
    if (now_s <= last_update_) return;  // time never flows backwards here
    if (moving_) {
        const double move_end =
            move_start_time_ + std::fabs(target_ - move_start_pos_) / params_.speed_mm_per_s;
        // Motion energy is banked incrementally so pre-empting commands never
        // lose the energy already spent on a partial move.
        const double t_from = std::max(last_update_, move_start_time_);
        const double t_to = std::min(now_s, move_end);
        if (t_to > t_from) {
            energy_ += params_.power_w * (t_to - t_from);
            travel_ += params_.speed_mm_per_s * (t_to - t_from);
        }
        const double dir = target_ > move_start_pos_ ? 1.0 : -1.0;
        if (now_s >= move_end) {
            pos_ = target_;
            moving_ = false;
        } else {
            pos_ = move_start_pos_ + dir * params_.speed_mm_per_s * (now_s - move_start_time_);
        }
    }
    last_update_ = now_s;
}

inline double TuningActuator::energy_consumed(double now_s) const {
    double e = energy_ + params_.holding_power_w * std::max(now_s, 0.0);
    if (moving_ && now_s > last_update_) {
        // In-flight energy since the last update() call (not yet banked).
        const double move_end =
            move_start_time_ + std::fabs(target_ - move_start_pos_) / params_.speed_mm_per_s;
        const double t_from = std::max(last_update_, move_start_time_);
        const double t_to = std::min(now_s, move_end);
        if (t_to > t_from) e += params_.power_w * (t_to - t_from);
    }
    return e;
}

}  // namespace ehdoe::harvester
