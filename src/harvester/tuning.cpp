#include "harvester/tuning.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdoe::harvester {

TuningMap::TuningMap(std::vector<double> separation_mm, std::vector<double> freq_hz) {
    if (separation_mm.size() != freq_hz.size() || separation_mm.size() < 3) {
        throw std::invalid_argument("TuningMap: need >= 3 calibration points");
    }
    for (std::size_t i = 1; i < freq_hz.size(); ++i) {
        if (!(freq_hz[i] < freq_hz[i - 1])) {
            throw std::invalid_argument("TuningMap: frequency must decrease with separation");
        }
    }
    d_min_ = separation_mm.front();
    d_max_ = separation_mm.back();
    f_max_ = freq_hz.front();
    f_min_ = freq_hz.back();
    spline_ = num::CubicSpline(std::move(separation_mm), std::move(freq_hz));
}

TuningMap TuningMap::synthetic(double d_min_mm, double d_max_mm, double f_min_hz,
                               double f_max_hz, double lambda_mm) {
    if (!(d_max_mm > d_min_mm)) throw std::invalid_argument("TuningMap::synthetic: d range");
    if (!(f_max_hz > f_min_hz)) throw std::invalid_argument("TuningMap::synthetic: f range");
    if (!(lambda_mm > 0.0)) throw std::invalid_argument("TuningMap::synthetic: lambda > 0");
    const int n = 9;
    std::vector<double> ds(n), fs(n);
    for (int i = 0; i < n; ++i) {
        const double d = d_min_mm + (d_max_mm - d_min_mm) * i / (n - 1);
        ds[i] = d;
        fs[i] = f_min_hz + (f_max_hz - f_min_hz) * std::exp(-(d - d_min_mm) / lambda_mm);
    }
    // Force the last knot to exactly f_min so the advertised range is honest.
    fs[n - 1] = f_min_hz;
    return TuningMap(std::move(ds), std::move(fs));
}

double TuningMap::frequency(double d_mm) const {
    return spline_(std::clamp(d_mm, d_min_, d_max_));
}

double TuningMap::separation_for(double f_hz) const {
    const double f = std::clamp(f_hz, f_min_, f_max_);
    // The spline is monotone decreasing; bisect.
    double lo = d_min_, hi = d_max_;
    for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (spline_(mid) > f) {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo < 1e-9) break;
    }
    return 0.5 * (lo + hi);
}

TuningActuator::TuningActuator(ActuatorParams params, double initial_position_mm)
    : params_(params), pos_(initial_position_mm), target_(initial_position_mm) {
    if (!(params.speed_mm_per_s > 0.0))
        throw std::invalid_argument("TuningActuator: speed > 0");
    if (!(params.power_w >= 0.0)) throw std::invalid_argument("TuningActuator: power >= 0");
}

double TuningActuator::command(double target_mm, double now_s) {
    update(now_s);
    // Quantize to mechanical resolution.
    const double quantum = params_.min_step_mm;
    const double snapped = quantum > 0.0 ? std::round(target_mm / quantum) * quantum : target_mm;
    target_ = snapped;
    move_start_time_ = now_s;
    move_start_pos_ = pos_;
    const double dist = std::fabs(target_ - pos_);
    if (dist < 1e-12) {
        moving_ = false;
        return 0.0;
    }
    moving_ = true;
    ++moves_;
    return dist / params_.speed_mm_per_s;
}

}  // namespace ehdoe::harvester
